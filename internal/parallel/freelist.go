package parallel

import "sync"

// FreeList is a mutex-guarded stack of reusable values: per-goroutine
// scratch for an object that concurrent workers share. It replaces a
// sync.Pool embedded in such an object. A sync.Pool registers itself with
// the runtime on first use, and the runtime holds it until two collections
// later; a pool embedded in an object keeps the whole object reachable that
// long after its last use. Fitted models are replaced at every step, so the
// live heap then counts every model used since the previous collection. A
// FreeList dies with its owner. It holds at most as many values as were in
// use at once. The zero value is an empty list.
type FreeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// Get pops a value, reporting false when the list is empty.
func (f *FreeList[T]) Get() (v T, ok bool) {
	f.mu.Lock()
	if n := len(f.items); n > 0 {
		v, ok = f.items[n-1], true
		f.items = f.items[:n-1]
	}
	f.mu.Unlock()
	return v, ok
}

// Put pushes v for a later Get.
func (f *FreeList[T]) Put(v T) {
	f.mu.Lock()
	f.items = append(f.items, v)
	f.mu.Unlock()
}
