package torture

import (
	"io"
	"net"
	"sync"
)

// Proxy is a TCP chaos proxy for injecting network faults between workers
// and the daemon: it forwards byte streams to a target address and can, on
// command, sever every live connection (CutAll) — the wire-level signature of
// a partition or a crashed load balancer. Client-side retry plus report
// idempotency keys must absorb it.
type Proxy struct {
	ln net.Listener

	mu     sync.Mutex
	target string
	conns  map[net.Conn]bool
	closed bool
	cuts   int
}

// NewProxy starts a proxy on a fresh loopback port forwarding to target
// (host:port). Close it when done.
func NewProxy(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, conns: make(map[net.Conn]bool)}
	go p.accept()
	return p, nil
}

// Addr returns the proxy's listen address (host:port).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL returns the proxy's address as an http base URL.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// SetTarget repoints the proxy (used when the daemon restarts on a new
// port); live connections to the old target are unaffected until cut.
func (p *Proxy) SetTarget(target string) {
	p.mu.Lock()
	p.target = target
	p.mu.Unlock()
}

// CutAll severs every live proxied connection mid-stream and returns how
// many were cut. In-flight requests surface as transport errors on both
// sides — exactly what a partition looks like.
func (p *Proxy) CutAll() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.conns)
	for c := range p.conns {
		c.Close()
	}
	p.cuts += n
	return n
}

// Cuts returns the total number of connections severed by CutAll.
func (p *Proxy) Cuts() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cuts
}

// Close stops accepting and severs everything.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.CutAll()
}

func (p *Proxy) accept() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		closed, target := p.closed, p.target
		if !closed {
			p.conns[conn] = true
		}
		p.mu.Unlock()
		if closed {
			conn.Close()
			continue
		}
		go p.forward(conn, target)
	}
}

func (p *Proxy) forward(src net.Conn, target string) {
	dst, err := net.Dial("tcp", target)
	if err != nil {
		p.drop(src)
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		dst.Close()
		p.drop(src)
		return
	}
	p.conns[dst] = true
	p.mu.Unlock()

	var wg sync.WaitGroup
	wg.Add(2)
	pipe := func(a, b net.Conn) {
		defer wg.Done()
		io.Copy(a, b)
		// Half-close propagation: when one direction ends, kill the pair —
		// good enough for an HTTP/1.1 fault proxy.
		a.Close()
		b.Close()
	}
	go pipe(dst, src)
	go pipe(src, dst)
	wg.Wait()
	p.drop(src)
	p.drop(dst)
}

func (p *Proxy) drop(c net.Conn) {
	c.Close()
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}
