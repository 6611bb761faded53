// Package proto defines the V-System message standards (§3.2 of the
// paper): the fixed 32-byte request/reply message format with an optional
// appended segment, the operation and reply codes, the standard fields of
// CSname requests (§5.3), and the typed object-description records
// returned by query operations and context directories (Figure 3, §5.5-5.6).
package proto

// HeaderBytes is the size of the fixed message header on the wire: the V
// kernel's 32-byte message (operation code, flags, six 32-bit parameter
// words, and the segment length).
const HeaderBytes = 32

// MaxSegmentBytes bounds the appended segment of a single message; larger
// transfers use MoveTo/MoveFrom.
const MaxSegmentBytes = 1 << 16

// Code is a 16-bit operation code (in request messages) or reply code (in
// reply messages). It occupies the first field of every message and acts
// as the tag for the variant part, like a Pascal variant-record tag.
type Code uint16

// Message is a V message: a fixed header of an operation/reply code, a
// flags word, and six 32-bit parameter words, plus an optional byte
// segment appended to the message. The interpretation of F and Segment is
// specified by Op.
type Message struct {
	Op      Code
	Flags   uint16
	F       [6]uint32
	Segment []byte
}

// WireSize is the total size of the message on the wire.
func (m *Message) WireSize() int { return HeaderBytes + len(m.Segment) }

// Clone returns a deep copy of the message, used when a message is
// delivered to multiple group members.
func (m *Message) Clone() *Message {
	c := *m
	if m.Segment != nil {
		c.Segment = make([]byte, len(m.Segment))
		copy(c.Segment, m.Segment)
	}
	return &c
}

// NewReply builds a reply message with the given reply code. Reply
// messages reuse the message structure, with the reply code in the code
// field (§3.2).
func NewReply(code Code) *Message { return &Message{Op: code} }

// AnswerIn turns m, a request its handler has finished reading, into an
// empty reply with code: flags and fields zeroed, the segment emptied but
// its storage kept, so its WireSize is a NewReply's. The reply lands in
// the message that asked, as V's Reply overwrites the sender's message
// (§3.1); PROTOCOL.md §7 says which handlers answer this way.
func AnswerIn(m *Message, code Code) *Message {
	*m = Message{Op: code, Segment: m.Segment[:0]}
	return m
}
