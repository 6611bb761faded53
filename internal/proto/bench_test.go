package proto

import "testing"

func BenchmarkDescriptorEncode(b *testing.B) {
	d := Descriptor{Tag: TagFile, ObjectID: 7, Size: 4096, Name: "naming.mss", Owner: "cheriton"}
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = d.AppendEncoded(buf[:0])
	}
}

func BenchmarkDirectoryStreamDecode(b *testing.B) {
	records := make([]Descriptor, 100)
	for i := range records {
		records[i] = Descriptor{Tag: TagFile, ObjectID: uint32(i), Name: "somefilename.txt"}
	}
	stream := EncodeDescriptors(records)
	b.ReportAllocs()
	b.SetBytes(int64(len(stream)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeDescriptors(stream); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSetCSName(b *testing.B) {
	m := &Message{Op: OpQueryObject}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SetCSName(m, 3, "users/mann/naming.mss")
	}
}
