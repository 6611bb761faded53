package proto

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeDescriptors: arbitrary directory streams never panic, and
// valid streams round trip.
func FuzzDecodeDescriptors(f *testing.F) {
	d := Descriptor{Tag: TagFile, Name: "x", Owner: "y"}
	f.Add(d.AppendEncoded(nil))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x01}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := DecodeDescriptors(data)
		if err != nil {
			return
		}
		re := EncodeDescriptors(records)
		if !bytes.Equal(re, data) {
			t.Fatalf("valid stream not canonical: %d bytes vs %d", len(re), len(data))
		}
	})
}

// FuzzDecodeDescriptor: arbitrary bytes at the single-record decoder.
// Whatever the input, it must not panic, every error must be ErrBadArgs
// (so servers answer a bad record with a protocol error, not a crash),
// and any record it accepts must re-encode to the exact bytes consumed
// — the canonical-form property directory listings rely on (§5.6).
func FuzzDecodeDescriptor(f *testing.F) {
	seed := Descriptor{
		Tag:          TagFile,
		Perms:        PermRead | PermWrite,
		ObjectID:     42,
		Size:         1 << 20,
		Modified:     123456789,
		TypeSpecific: [2]uint32{7, 9},
		Name:         "paper.mss",
		Owner:        "mann",
	}
	f.Add(seed.AppendEncoded(nil))
	f.Add(EncodeDescriptors([]Descriptor{seed, {Tag: TagLink, Name: "archive"}}))
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0})
	f.Add(bytes.Repeat([]byte{0xff}, 40))
	f.Fuzz(func(t *testing.T, buf []byte) {
		d, n, err := DecodeDescriptor(buf)
		if err != nil {
			if !errors.Is(err, ErrBadArgs) {
				t.Fatalf("decode error %v is not ErrBadArgs", err)
			}
			return
		}
		if n <= 0 || n > len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if d.EncodedSize() != n {
			t.Fatalf("EncodedSize %d != consumed %d", d.EncodedSize(), n)
		}
		if got := d.AppendEncoded(nil); !bytes.Equal(got, buf[:n]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", got, buf[:n])
		}
	})
}

// FuzzCSName: arbitrary header fields never panic the CSname accessors.
func FuzzCSName(f *testing.F) {
	f.Add(uint32(0), uint32(0), []byte("users/mann"))
	f.Add(uint32(5), uint32(100), []byte(""))
	f.Fuzz(func(t *testing.T, idx, nameLen uint32, segment []byte) {
		m := &Message{Op: OpQueryObject, Segment: segment}
		m.F[1] = idx
		m.F[2] = nameLen
		name, i, err := CSName(m)
		if err != nil {
			return
		}
		if i > len(name) {
			t.Fatalf("index %d beyond name %d", i, len(name))
		}
	})
}
