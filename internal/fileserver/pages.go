package fileserver

// The volume's page store: a file's bytes are a list of fixed pages,
// the paper's 512-byte disk pages, carved from pointer-free slabs the
// collector never traces. A truncated or removed file's pages go to a
// free list that the next write takes from first, so seeding a file takes
// each page once and a rewrite takes back the pages its truncate freed.

const (
	pageSize  = 512
	slabPages = 128 // 64 KB a slab
)

type pageStore struct {
	slabs  [][]byte
	free   []uint32
	carved uint32
}

// take returns a zeroed page: a freed one if any, else a new one.
func (s *pageStore) take() uint32 {
	if n := len(s.free); n > 0 {
		p := s.free[n-1]
		s.free = s.free[:n-1]
		clear(s.page(p))
		return p
	}
	if int(s.carved) == len(s.slabs)*slabPages {
		s.slabs = append(s.slabs, make([]byte, slabPages*pageSize))
	}
	s.carved++
	return s.carved - 1
}

func (s *pageStore) page(p uint32) []byte {
	off := int(p%slabPages) * pageSize
	return s.slabs[p/slabPages][off : off+pageSize]
}

// release frees a file's pages and empties it, keeping the page list's
// capacity for its next write.
func (s *pageStore) release(n *node) {
	s.free = append(s.free, n.pages...)
	n.pages, n.size = n.pages[:0], 0
}

// readAt copies n's bytes from off into buf and returns the count.
func (s *pageStore) readAt(n *node, off int, buf []byte) int {
	done := 0
	for end := min(off+len(buf), int(n.size)); off+done < end; {
		at := off + done
		done += copy(buf[done:end-off], s.page(n.pages[at/pageSize])[at%pageSize:])
	}
	return done
}

// writeAt stores data into n at off, taking the pages it needs; the
// bytes between n's old end and off read as zeros.
func (s *pageStore) writeAt(n *node, off int, data []byte) int {
	end := off + len(data)
	for len(n.pages)*pageSize < end {
		n.pages = append(n.pages, s.take())
	}
	for done := 0; done < len(data); {
		at := off + done
		done += copy(s.page(n.pages[at/pageSize])[at%pageSize:], data[done:])
	}
	n.size = uint32(max(int(n.size), end))
	return len(data)
}
