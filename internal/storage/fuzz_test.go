package storage

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes through the record envelope. A
// decode either fails with an error wrapping ErrCorrupt or returns a payload
// whose re-encoding is exactly the input; and any bytes framed by
// encodeRecord decode back to themselves. Neither step may panic.
func FuzzDecodeRecord(f *testing.F) {
	env := encodeRecord([]byte("the quick brown fox"))
	f.Add(env)
	f.Add(env[:headerSize])
	f.Add(env[:len(env)-1])
	flipped := append([]byte(nil), env...)
	flipped[headerSize] ^= 0x01
	f.Add(flipped)
	f.Add(encodeRecord(nil))
	f.Add([]byte("the quick brown fox"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := decodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("decode error %v does not wrap ErrCorrupt", err)
			}
		} else if re := encodeRecord(payload); !bytes.Equal(re, data) {
			t.Fatalf("accepted %x, but its payload re-encodes to %x", data, re)
		}
		got, err := decodeRecord(encodeRecord(data))
		if err != nil {
			t.Fatalf("decode of an encoded record: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip = %x, want %x", got, data)
		}
	})
}
