package index

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"math"
	"strconv"

	"desksearch/internal/postings"
)

// The DSIX on-disk family. The authoritative format specification — the
// varint delta coding of IDs and positions, the frequency- and
// positions-section markers, and the corruption-detection guarantees —
// lives in docs/FORMAT.md; keep the two in sync (CI's docs-check gate
// compares the version and kind constants below against the spec).
//
// A catalog persists as a directory of version 11 files, told apart by the
// kind byte after the version. Every file starts with the header
// AppendHeader writes and CheckHeader checks,
//
//	magic "DSIX" | u16 version 11 | u8 kind | u8 flags
//
// and every region after it is built by appending to a byte slice and read
// through one Cursor. The manifest (kind 2) is a frame — header, payload,
// and the u32 CRC-32C of both (SealFrame, OpenFrame) — whose payload
// (internal/shard) is the file table | doc-length section | segment
// directory. Shard segments (kind 1) use the lazy layout of
// internal/segment, which is not a single-checksum frame. Every checksum
// in every file is Checksum's CRC-32C.
//
// The file table is
//
//	uvarint fileCount | fileCount × (uvarint pathLen | path bytes |
//	                                 uvarint size | uvarint mtime | u8 flags)
//
// (flags bit 0 set = live; clear = tombstone of a deleted file whose ID is
// retired but never reused), and the doc-length section records each
// file's token length for BM25.
//
// Versions 1–10 are retired: their files are rejected by version number
// with advice to rebuild.

const (
	magic = "DSIX"
	// HeaderLen is the length of the header every DSIX file starts with:
	// magic, version, kind, flags.
	HeaderLen = 4 + 2 + 1 + 1
	// Version is the one live DSIX version, of the manifest and of the
	// shard segment alike.
	Version = 11
	// KindSegment is the lazy shard segment (internal/segment): a sorted,
	// checksummed term dictionary pointing into per-term posting blocks,
	// openable in O(dictionary) and decoded on demand.
	KindSegment = 1
	// KindManifest is the shard manifest frame: file table, doc lengths
	// (each file's token length, which BM25 ranking normalizes by) and the
	// segment directory (internal/shard).
	KindManifest = 2
	// maxString caps a length-prefixed string: a path, a term, a segment
	// name.
	maxString = 1 << 20
)

// castagnoli selects CRC-32C, which hash/crc32 computes in hardware on
// amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC-32C of b: the block and dictionary sums of a
// segment, the manifest's whole-file segment sums and the frame trailer.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// NewChecksum returns Checksum in streaming form.
func NewChecksum() hash.Hash32 { return crc32.New(castagnoli) }

// VersionError is the one rejection of a DSIX file whose version is not
// Version: a retired one, told to rebuild, or one newer than this build.
func VersionError(found uint16) error {
	if found < Version {
		return fmt.Errorf("index: DSIX version %d, want %d (versions 1-%d are retired): rebuild the index",
			found, Version, Version-1)
	}
	return fmt.Errorf("index: DSIX version %d, want %d: the file is newer than this build", found, Version)
}

// KindError rejects a live-version DSIX file of one kind found where
// another belongs.
func KindError(found, want byte) error {
	name := func(kind byte) string {
		switch kind {
		case KindSegment:
			return "a shard segment"
		case KindManifest:
			return "a manifest"
		}
		return "unknown"
	}
	return fmt.Errorf("index: DSIX kind %d (%s), want kind %d (%s)", found, name(found), want, name(want))
}

// AppendHeader appends the header of a live-version DSIX file of kind with
// flags.
func AppendHeader(dst []byte, kind, flags byte) []byte {
	dst = append(dst, magic...)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	return append(dst, kind, flags)
}

// CheckHeader checks the header b starts with — magic, version, kind, in
// that order — and returns its flags for the caller to validate.
func CheckHeader(b []byte, kind byte) (byte, error) {
	if len(b) < HeaderLen {
		return 0, fmt.Errorf("index: truncated (%d bytes)", len(b))
	}
	if m := b[:len(magic)]; string(m) != magic {
		return 0, fmt.Errorf("index: bad magic %q", m)
	}
	if v := binary.LittleEndian.Uint16(b[len(magic):]); v != Version {
		return 0, VersionError(v)
	}
	if got := b[HeaderLen-2]; got != kind {
		return 0, KindError(got, kind)
	}
	return b[HeaderLen-1], nil
}

// SealFrame appends the checksum trailer to frame, a header and its
// payload, and returns the file's bytes.
func SealFrame(frame []byte) []byte {
	return binary.LittleEndian.AppendUint32(frame, Checksum(frame))
}

// OpenFrame verifies data's checksum trailer and then its header — in that
// order, so nothing is parsed before the checksum holds — and returns the
// flags for the caller to validate and a Cursor over the payload.
func OpenFrame(data []byte, kind byte) (*Cursor, byte, error) {
	if len(data) < HeaderLen+4 {
		return nil, 0, fmt.Errorf("index: truncated (%d bytes)", len(data))
	}
	frame, trailer := data[:len(data)-4], data[len(data)-4:]
	if want, got := binary.LittleEndian.Uint32(trailer), Checksum(frame); got != want {
		// A file of another version (a retired manifest has an FNV-1
		// trailer) or a segment (no trailer at all) lands here rather than
		// at the check below; peeking the header, without trusting
		// anything in it, turns a baffling checksum complaint into the
		// mismatch it actually is.
		if string(frame[:len(magic)]) == magic {
			if _, err := CheckHeader(frame, kind); err != nil {
				return nil, 0, err
			}
		}
		return nil, 0, fmt.Errorf("index: checksum mismatch: file %#x, computed %#x", want, got)
	}
	flags, err := CheckHeader(frame, kind)
	if err != nil {
		return nil, 0, err
	}
	return NewCursor(frame[HeaderLen:]), flags, nil
}

// AppendString appends a length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// Cursor is a bounds-checked sequential reader over a region of a DSIX
// file — a manifest payload, a segment dictionary — or over a worker's
// partial (internal/server), bytes from another process that it trusts no
// more than a file's. Its first failure sticks in Err and every read after
// it returns a zero value, so a parser reads a run of fields and checks
// once.
//
// Uvarint, take and the fixed-width reads built on it are small enough
// for the compiler to inline: a failure only records what failed, and the
// message is formatted when the error is read. A failure also empties the
// cursor, so the reads after it find no bytes and need not test Err.
type Cursor struct {
	b   []byte
	off int
	err error
}

// NewCursor returns a Cursor at the start of b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Err returns the first failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Left returns how many bytes remain unread: none once the cursor has
// failed.
func (c *Cursor) Left() int { return len(c.b) - c.off }

// noValue marks a cursorError with no value to report.
const noValue = math.MaxUint64

// cursorError is a Cursor's failure: what failed, the value read unless
// it is noValue, and the offset. Its message is built with strconv when
// it is read, never through fmt: a forged field is the hostile input a
// reader meets most, and rejecting it should cost a fixed few
// allocations, not whatever fmt's pooled state costs when the pool is
// empty.
type cursorError struct {
	what string
	v    uint64
	at   int
}

func (e *cursorError) Error() string {
	msg := e.what
	if e.v != noValue {
		msg += " " + strconv.FormatUint(e.v, 10)
	}
	return msg + " at offset " + strconv.Itoa(e.at)
}

// fail records the first failure and empties the cursor.
func (c *Cursor) fail(what string, v uint64) {
	if c.err == nil {
		c.err = &cursorError{what, v, c.off}
	}
	c.b, c.off = nil, 0
}

// Uvarint reads a uvarint: at most ten bytes, the tenth 0 or 1.
func (c *Cursor) Uvarint() (v uint64) {
	for i, b := range c.b[c.off:] {
		v |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 || i == binary.MaxVarintLen64-1 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			c.off += i + 1
			return v
		}
	}
	c.fail("corrupt uvarint", noValue)
	return 0
}

// Int reads a uvarint that must fit a non-negative int.
func (c *Cursor) Int() int {
	v := c.Uvarint()
	if v > math.MaxInt {
		c.fail("absurd int", v)
		return 0
	}
	return int(v)
}

// take returns the next n bytes, or nil and a failure named what when
// fewer are left.
func (c *Cursor) take(n uint64, what string) []byte {
	if rest := c.b[c.off:]; n <= uint64(len(rest)) {
		c.off += int(n)
		return rest[:n]
	}
	c.fail(what, noValue)
	return nil
}

// U32 reads a little-endian u32.
func (c *Cursor) U32() uint32 {
	if b := c.take(4, "u32 overruns buffer"); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian u64.
func (c *Cursor) U64() uint64 {
	if b := c.take(8, "u64 overruns buffer"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Byte reads one byte.
func (c *Cursor) Byte() byte {
	if b := c.take(1, "byte overruns buffer"); b != nil {
		return b[0]
	}
	return 0
}

// Str reads a length-prefixed string of at most 1 MiB.
func (c *Cursor) Str() string { return string(c.StrBytes()) }

// StrBytes reads what Str reads without copying it: the bytes alias the
// region, so a caller that keeps them past it copies them (a segment's
// dictionary copies its entries whole).
func (c *Cursor) StrBytes() []byte {
	n := c.Uvarint()
	if n > maxString {
		c.fail("absurd string length", n)
		return nil
	}
	return c.take(n, "string overruns buffer")
}

// Count reads the uvarint count of a run of entries of at least entryLen
// bytes each and fails when the bytes left could not hold them: no count
// sizes an allocation before the bytes that would back it bound it.
func (c *Cursor) Count(what string, entryLen int) int {
	n := c.Uvarint()
	if n > uint64(c.Left()/entryLen) {
		c.fail("absurd "+what+" count", n)
		return 0
	}
	return int(n)
}

// IDs reads an ID section (postings.DecodeIDs): a count, then the
// delta-coded IDs.
func (c *Cursor) IDs() []postings.FileID {
	if c.err != nil {
		return nil
	}
	ids, n, err := postings.DecodeIDs(c.b[c.off:])
	if err != nil {
		c.err, c.b, c.off = err, nil, 0
		return nil
	}
	c.off += n
	return ids
}

const (
	// fileLiveFlag marks a live (non-tombstoned) file-table entry on disk.
	fileLiveFlag = 1
	// minFileEntry is the smallest file-table entry: an empty path's
	// length, a size and an mtime of one byte each, and the flags.
	minFileEntry = 4
)

// AppendFileTable appends the file-table payload section, tombstones
// included: retired FileIDs must survive a save/load cycle so that posting
// IDs stay aligned and deleted files stay deleted.
func AppendFileTable(dst []byte, files *FileTable) []byte {
	dst = binary.AppendUvarint(dst, uint64(files.Len()))
	for id, path := range files.Paths() {
		fid := postings.FileID(id)
		dst = AppendString(dst, path)
		dst = binary.AppendUvarint(dst, uint64(files.Size(fid)))
		dst = binary.AppendUvarint(dst, uint64(files.ModTime(fid)))
		var flags byte
		if files.Live(fid) {
			flags |= fileLiveFlag
		}
		dst = append(dst, flags)
	}
	return dst
}

// ReadFileTable reads the file-table payload section; token lengths stay
// zero until ReadDocLengths fills them in from the section that follows.
// The table is sized once by the section's count, which Count holds to
// the bytes that could back it.
func ReadFileTable(c *Cursor) (*FileTable, error) {
	n := c.Count("file", minFileEntry)
	files := newFileTable(n)
	for i := 0; i < n && c.Err() == nil; i++ {
		path, size, mtime, flags := c.Str(), c.Uvarint(), c.Uvarint(), c.Byte()
		id := files.Add(path, int64(size), int64(mtime))
		if flags&fileLiveFlag == 0 {
			files.Tombstone(id)
		}
	}
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("index: file table: %w", err)
	}
	return files, nil
}

// AppendDocLengths appends the doc-length payload section: the table's
// per-file token lengths, tombstoned slots included so the section stays
// parallel to the file table.
//
//	uvarint fileCount | fileCount × uvarint tokens
//
// The repeated fileCount must match the file table's; readers treat a
// mismatch as corruption.
func AppendDocLengths(dst []byte, files *FileTable) []byte {
	dst = binary.AppendUvarint(dst, uint64(files.Len()))
	for id := range files.Len() {
		dst = binary.AppendUvarint(dst, uint64(files.Tokens(postings.FileID(id))))
	}
	return dst
}

// ReadDocLengths reads the doc-length payload section into files, which
// must be the table read immediately before it.
func ReadDocLengths(c *Cursor, files *FileTable) error {
	if n := c.Uvarint(); c.Err() == nil && n != uint64(files.Len()) {
		return fmt.Errorf("index: doc-length count %d does not match %d files", n, files.Len())
	}
	for id := range files.Len() {
		n := c.Uvarint()
		if n > 1<<32-1 {
			return fmt.Errorf("index: absurd doc length %d for file %d", n, id)
		}
		files.SetTokens(postings.FileID(id), uint32(n))
	}
	if err := c.Err(); err != nil {
		return fmt.Errorf("index: doc lengths: %w", err)
	}
	return nil
}
