package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"

	"desksearch/internal/postings"
)

// The DSIX on-disk family. The authoritative format specification — the
// varint delta coding of IDs and positions, the frequency- and
// positions-section markers, and the corruption-detection guarantees —
// lives in docs/FORMAT.md; keep the two in sync (CI's docs-check gate
// compares the version and kind constants below against the spec).
//
// A catalog persists as a directory of version 11 files, told apart by the
// kind byte after the version. The manifest is a frame, written and read
// here,
//
//	magic "DSIX" | u16 version 11 | u8 kind 2 | u8 flags | payload |
//	u32 CRC-32C of everything above
//
// whose payload is the file table | doc-length section | segment directory
// (flags 0; internal/shard writes it over this package's exported frame
// helpers). Shard segments (kind 1) use the lazy layout of internal/segment,
// which is not a single-checksum frame. Every checksum in every file is
// Checksum's CRC-32C.
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
	codecMagic = "DSIX"
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
	// maxCount bounds file counts against corrupt headers.
	maxCount = 1 << 31
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

// EncodeFrame writes a DSIX frame to w: magic, version, the payload written
// by body, and the checksum trailer over everything before it.
func EncodeFrame(w io.Writer, version uint16, body func(*bufio.Writer) error) error {
	h := NewChecksum()
	bw := bufio.NewWriter(io.MultiWriter(w, h))
	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], version)
	if _, err := bw.Write(b[:]); err != nil {
		return err
	}
	if err := body(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, h.Sum32()))
	return err
}

// DecodeFrame verifies data's checksum trailer, magic, version, and kind —
// in that order, so nothing is parsed before the checksum holds — and
// returns a reader positioned after the flags byte, the full payload slice,
// and the flags for the caller to validate.
func DecodeFrame(data []byte, kind byte) (*bytes.Reader, []byte, byte, error) {
	const versionEnd = len(codecMagic) + 2
	if len(data) < versionEnd+4 {
		return nil, nil, 0, fmt.Errorf("index: truncated (%d bytes)", len(data))
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	want := binary.LittleEndian.Uint32(trailer)
	if got := Checksum(payload); got != want {
		// A file of another version (a retired manifest has an FNV-1
		// trailer) or a segment (no trailer at all) lands here rather than
		// at the checks below; peeking the header, without trusting
		// anything in it, turns a baffling checksum complaint into the
		// mismatch it actually is.
		if string(data[:len(codecMagic)]) == codecMagic {
			if v := binary.LittleEndian.Uint16(data[len(codecMagic):]); v != Version {
				return nil, nil, 0, VersionError(v)
			}
			if got := data[versionEnd]; got != kind {
				return nil, nil, 0, KindError(got, kind)
			}
		}
		return nil, nil, 0, fmt.Errorf("index: checksum mismatch: file %#x, computed %#x", want, got)
	}
	if magic := payload[:len(codecMagic)]; string(magic) != codecMagic {
		return nil, nil, 0, fmt.Errorf("index: bad magic %q", magic)
	}
	if v := binary.LittleEndian.Uint16(payload[len(codecMagic):]); v != Version {
		return nil, nil, 0, VersionError(v)
	}
	if len(payload) < versionEnd+2 {
		return nil, nil, 0, fmt.Errorf("index: truncated before the frame kind and flags")
	}
	if got := payload[versionEnd]; got != kind {
		return nil, nil, 0, KindError(got, kind)
	}
	return bytes.NewReader(payload[versionEnd+2:]), payload, payload[versionEnd+1], nil
}

// WriteUvarint writes v in varint form.
func WriteUvarint(bw *bufio.Writer, v uint64) error {
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], v)
	_, err := bw.Write(scratch[:n])
	return err
}

// WriteString writes a length-prefixed string.
func WriteString(bw *bufio.Writer, s string) error {
	if err := WriteUvarint(bw, uint64(len(s))); err != nil {
		return err
	}
	_, err := bw.WriteString(s)
	return err
}

// ReadString reads a length-prefixed string.
func ReadString(br *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("absurd string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// fileLiveFlag marks a live (non-tombstoned) file-table entry on disk.
const fileLiveFlag = 1

// WriteFileTable writes the file-table payload section, tombstones
// included: retired FileIDs must survive a save/load cycle so that posting
// IDs stay aligned and deleted files stay deleted.
func WriteFileTable(bw *bufio.Writer, files *FileTable) error {
	if err := WriteUvarint(bw, uint64(files.Len())); err != nil {
		return err
	}
	for id, path := range files.Paths() {
		fid := postings.FileID(id)
		if err := WriteString(bw, path); err != nil {
			return err
		}
		if err := WriteUvarint(bw, uint64(files.Size(fid))); err != nil {
			return err
		}
		if err := WriteUvarint(bw, uint64(files.ModTime(fid))); err != nil {
			return err
		}
		var flags byte
		if files.Live(fid) {
			flags |= fileLiveFlag
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
	}
	return nil
}

// WriteDocLengths writes the doc-length payload section of a frame: the
// table's per-file token lengths, tombstoned slots included so the section
// stays parallel to the file table.
//
//	uvarint fileCount | fileCount × uvarint tokens
//
// The repeated fileCount must match the file table's; readers treat a
// mismatch as corruption.
func WriteDocLengths(bw *bufio.Writer, files *FileTable) error {
	if err := WriteUvarint(bw, uint64(files.Len())); err != nil {
		return err
	}
	for id := range files.Len() {
		if err := WriteUvarint(bw, uint64(files.Tokens(postings.FileID(id)))); err != nil {
			return err
		}
	}
	return nil
}

// ReadDocLengths reads the doc-length payload section into files, which
// must be the table read immediately before it.
func ReadDocLengths(br *bytes.Reader, files *FileTable) error {
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("index: reading doc-length count: %w", err)
	}
	if count != uint64(files.Len()) {
		return fmt.Errorf("index: doc-length count %d does not match %d files", count, files.Len())
	}
	for id := range files.Len() {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("index: file %d doc length: %w", id, err)
		}
		if n > 1<<32-1 {
			return fmt.Errorf("index: absurd doc length %d for file %d", n, id)
		}
		files.SetTokens(postings.FileID(id), uint32(n))
	}
	return nil
}

// ReadFileTable reads the file-table payload section; token lengths stay
// zero until ReadDocLengths fills them in from the section that follows.
func ReadFileTable(br *bytes.Reader) (*FileTable, error) {
	fileCount, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("index: reading file count: %w", err)
	}
	if fileCount > maxCount {
		return nil, fmt.Errorf("index: absurd file count %d", fileCount)
	}
	files := NewFileTable()
	for i := uint64(0); i < fileCount; i++ {
		path, err := ReadString(br)
		if err != nil {
			return nil, fmt.Errorf("index: file %d path: %w", i, err)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("index: file %d size: %w", i, err)
		}
		mtime, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("index: file %d mtime: %w", i, err)
		}
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("index: file %d flags: %w", i, err)
		}
		id := files.Add(path, int64(size), int64(mtime))
		if flags&fileLiveFlag == 0 {
			files.Tombstone(id)
		}
	}
	return files, nil
}
