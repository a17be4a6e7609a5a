package wal

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrames feeds arbitrary bytes to the parser a follower runs on
// whatever the leader's WAL endpoint sent: it must never panic, and a
// buffer it accepts must be exactly the encoding of the records it
// returned — nothing dropped, nothing invented.
func FuzzDecodeFrames(f *testing.F) {
	var one, two [recordSize]byte
	encodeRecord(rec(OpInsert, 1), one[:])
	encodeRecord(MarkRecord(3, 4096), two[:])
	f.Add([]byte(nil))
	f.Add(one[:])
	f.Add(append(append([]byte(nil), one[:]...), two[:]...))
	f.Add(one[:recordSize-1]) // ragged
	rot := append([]byte(nil), one[:]...)
	rot[frameSize+3] ^= 0x01 // checksum damage
	f.Add(rot)
	rot = append([]byte(nil), one[:]...)
	rot[0] ^= 0x01 // length damage
	f.Add(rot)
	bad := rec(OpInsert, 2)
	bad.Op = 77 // framed and checksummed, but no such op
	encodeRecord(bad, two[:])
	f.Add(two[:])

	f.Fuzz(func(t *testing.T, buf []byte) {
		recs, err := DecodeFrames(buf)
		if err != nil {
			return
		}
		if len(recs)*recordSize != len(buf) {
			t.Fatalf("%d bytes decoded into %d records", len(buf), len(recs))
		}
		var frame [recordSize]byte
		for i, r := range recs {
			encodeRecord(r, frame[:])
			if !bytes.Equal(frame[:], buf[i*recordSize:(i+1)*recordSize]) {
				t.Fatalf("record %d (%+v) does not re-encode to the bytes it was decoded from", i, r)
			}
		}
	})
}
