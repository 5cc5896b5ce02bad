// Package segment implements the sealed segment file: the durable,
// mmap-able form of a frozen live-store base. The paper's access-schema
// index tables ("project on X ∪ Y, index on X") serialize naturally —
// tuples are stored once per relation and each index group is just the
// witness positions of its entries, so loading a segment reconstructs
// the exact index structure BuildAccessIndex produced, without
// re-scanning the data.
//
// File layout (all integers big-endian; strings u32-length-prefixed;
// values in value.AppendKey encoding):
//
//	"BCQSEG1\n"                                   8-byte header magic
//	u32 format version (currently 1)
//	u64 epoch                                     checkpoint epoch
//	u32 #constraints | per constraint: rel, #x×attr, #y×attr, u64 N
//	u32 #relations   | per relation: name, u32 arity, u64 #tuples, values
//	u32 #index blocks (one per constraint, same order):
//	    u64 #groups | per group: u32 #entries, u32×witness positions
//	u32 CRC-32C of everything above
//	"BCQSEGF\n"                                   8-byte footer magic
//
// A segment is written to a temp file, fsynced, atomically renamed into
// place, and the directory fsynced — so a crash mid-checkpoint leaves
// either the old segment set or the new one, never a half-written file
// that passes validation. The footer checksum covers the whole body, so
// truncation and bit flips are both detected at load time.
package segment

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"bcq/internal/schema"
	"bcq/internal/storage"
	"bcq/internal/value"
)

const (
	headMagic     = "BCQSEG1\n"
	footMagic     = "BCQSEGF\n"
	formatVersion = 1
	// Suffix and prefix of segment file names: seg-<16-hex-epoch>.bcq.
	namePrefix = "seg-"
	nameSuffix = ".bcq"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Info describes one segment file on disk.
type Info struct {
	Path  string
	Epoch uint64
	Bytes int64
}

// Path returns the canonical file name for a checkpoint epoch. Epochs are
// zero-padded hex so lexicographic order is epoch order.
func Path(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", namePrefix, epoch, nameSuffix))
}

// List returns the segment files in dir, newest (highest epoch) first.
// Files that merely look like segments but have unparsable names are
// ignored.
func List(dir string) []Info {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []Info
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, namePrefix) || !strings.HasSuffix(name, nameSuffix) {
			continue
		}
		hexPart := strings.TrimSuffix(strings.TrimPrefix(name, namePrefix), nameSuffix)
		epoch, err := strconv.ParseUint(hexPart, 16, 64)
		if err != nil {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, Info{Path: filepath.Join(dir, name), Epoch: epoch, Bytes: info.Size()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch > out[j].Epoch })
	return out
}

// Write serializes a sealed database (with its access schema's indexes
// built) as the segment for a checkpoint epoch and atomically installs it
// in dir. It returns the installed file's Info.
func Write(dir string, db *storage.Database, acc *schema.AccessSchema, epoch uint64) (Info, error) {
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, headMagic...)
	buf = appendU32(buf, formatVersion)
	buf = appendU64(buf, epoch)

	acs := acc.Constraints()
	buf = appendU32(buf, uint32(len(acs)))
	for _, ac := range acs {
		buf = appendStr(buf, ac.Rel)
		buf = appendU32(buf, uint32(len(ac.X)))
		for _, a := range ac.X {
			buf = appendStr(buf, a)
		}
		buf = appendU32(buf, uint32(len(ac.Y)))
		for _, a := range ac.Y {
			buf = appendStr(buf, a)
		}
		buf = appendU64(buf, uint64(ac.N))
	}

	rels := db.Catalog().Relations()
	buf = appendU32(buf, uint32(len(rels)))
	for _, rs := range rels {
		rel, err := db.Relation(rs.Name())
		if err != nil {
			return Info{}, err
		}
		buf = appendStr(buf, rs.Name())
		buf = appendU32(buf, uint32(rs.Arity()))
		buf = appendU64(buf, uint64(len(rel.Tuples)))
		for _, t := range rel.Tuples {
			for _, v := range t {
				buf = v.AppendKey(buf)
			}
		}
	}

	buf = appendU32(buf, uint32(len(acs)))
	for _, ac := range acs {
		idx, ok := db.AccessIndexFor(ac)
		if !ok {
			return Info{}, fmt.Errorf("segment: no index built for constraint %s", ac)
		}
		type group struct {
			key     string
			entries []storage.IndexEntry
		}
		groups := make([]group, 0, idx.NumGroups())
		idx.Range(func(xKey string, entries []storage.IndexEntry) bool {
			groups = append(groups, group{xKey, entries})
			return true
		})
		sort.Slice(groups, func(i, j int) bool { return groups[i].key < groups[j].key })
		buf = appendU64(buf, uint64(len(groups)))
		for _, g := range groups {
			buf = appendU32(buf, uint32(len(g.entries)))
			for _, e := range g.entries {
				buf = appendU32(buf, uint32(e.Pos))
			}
		}
	}

	buf = appendU32(buf, crc32.Checksum(buf, castagnoli))
	buf = append(buf, footMagic...)

	final := Path(dir, epoch)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return Info{}, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return Info{}, fmt.Errorf("segment: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return Info{}, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return Info{}, err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return Info{}, err
	}
	if err := syncDir(dir); err != nil {
		return Info{}, err
	}
	return Info{Path: final, Epoch: epoch, Bytes: int64(len(buf))}, nil
}

// Load reads and validates a segment file and reconstructs the sealed
// database it checkpointed, together with the access schema in force at
// the checkpoint and the checkpoint epoch. The file is mapped read-only
// where the platform supports it (tuple values copy out of the mapping,
// which is then released).
func Load(path string, cat *schema.Catalog) (*storage.Database, *schema.AccessSchema, uint64, error) {
	data, release, err := mapFile(path)
	if err != nil {
		return nil, nil, 0, err
	}
	defer release()

	if len(data) < len(headMagic)+4+8+4+len(footMagic) {
		return nil, nil, 0, fmt.Errorf("segment: %s too short (%d bytes)", path, len(data))
	}
	if string(data[:len(headMagic)]) != headMagic {
		return nil, nil, 0, fmt.Errorf("segment: %s: bad header magic", path)
	}
	if string(data[len(data)-len(footMagic):]) != footMagic {
		return nil, nil, 0, fmt.Errorf("segment: %s: bad footer magic (truncated?)", path)
	}
	body := data[: len(data)-len(footMagic)-4 : len(data)-len(footMagic)-4]
	crcBytes := data[len(data)-len(footMagic)-4 : len(data)-len(footMagic)]
	if crc32.Checksum(body, castagnoli) != be32(crcBytes) {
		return nil, nil, 0, fmt.Errorf("segment: %s: checksum mismatch", path)
	}

	b := body[len(headMagic):]
	version, b, err := takeU32(b)
	if err != nil {
		return nil, nil, 0, loadErr(path, err)
	}
	if version != formatVersion {
		return nil, nil, 0, fmt.Errorf("segment: %s: unsupported format version %d", path, version)
	}
	epoch, b, err := takeU64(b)
	if err != nil {
		return nil, nil, 0, loadErr(path, err)
	}

	nacs, b, err := takeU32(b)
	if err != nil {
		return nil, nil, 0, loadErr(path, err)
	}
	acs := make([]schema.AccessConstraint, 0, capFor(uint64(nacs), b, minConstraintBytes))
	for i := uint32(0); i < nacs; i++ {
		var rel string
		rel, b, err = takeStr(b)
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		var x, y []string
		x, b, err = takeStrs(b)
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		y, b, err = takeStrs(b)
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		var n uint64
		n, b, err = takeU64(b)
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		ac, err := schema.NewAccessConstraint(rel, x, y, int64(n))
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		acs = append(acs, ac)
	}
	acc, err := schema.NewAccessSchema(acs...)
	if err != nil {
		return nil, nil, 0, loadErr(path, err)
	}
	if err := acc.Validate(cat); err != nil {
		return nil, nil, 0, fmt.Errorf("segment: %s: recorded schema no longer matches catalog: %w", path, err)
	}

	db := storage.NewDatabase(cat)
	nrels, b, err := takeU32(b)
	if err != nil {
		return nil, nil, 0, loadErr(path, err)
	}
	for i := uint32(0); i < nrels; i++ {
		var name string
		name, b, err = takeStr(b)
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		rs, ok := cat.Relation(name)
		if !ok {
			return nil, nil, 0, fmt.Errorf("segment: %s: relation %s not in catalog", path, name)
		}
		var arity uint32
		arity, b, err = takeU32(b)
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		if int(arity) != rs.Arity() {
			return nil, nil, 0, fmt.Errorf("segment: %s: relation %s arity %d, catalog says %d", path, name, arity, rs.Arity())
		}
		var ntuples uint64
		ntuples, b, err = takeU64(b)
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		for j := uint64(0); j < ntuples; j++ {
			t := make(value.Tuple, arity)
			for k := range t {
				t[k], b, err = value.DecodeValue(b)
				if err != nil {
					return nil, nil, 0, loadErr(path, err)
				}
			}
			if err := db.Insert(name, t); err != nil {
				return nil, nil, 0, loadErr(path, err)
			}
		}
	}

	nblocks, b, err := takeU32(b)
	if err != nil {
		return nil, nil, 0, loadErr(path, err)
	}
	if int(nblocks) != len(acs) {
		return nil, nil, 0, fmt.Errorf("segment: %s: %d index blocks for %d constraints", path, nblocks, len(acs))
	}
	groups := make(map[string][][]int, len(acs))
	for i := uint32(0); i < nblocks; i++ {
		var ngroups uint64
		ngroups, b, err = takeU64(b)
		if err != nil {
			return nil, nil, 0, loadErr(path, err)
		}
		gs := make([][]int, 0, capFor(ngroups, b, minU32Bytes))
		for j := uint64(0); j < ngroups; j++ {
			var nentries uint32
			nentries, b, err = takeU32(b)
			if err != nil {
				return nil, nil, 0, loadErr(path, err)
			}
			g := make([]int, 0, capFor(uint64(nentries), b, minU32Bytes))
			for k := uint32(0); k < nentries; k++ {
				var pos uint32
				pos, b, err = takeU32(b)
				if err != nil {
					return nil, nil, 0, loadErr(path, err)
				}
				g = append(g, int(pos))
			}
			gs = append(gs, g)
		}
		groups[acs[i].Key()] = gs
	}
	if len(b) != 0 {
		return nil, nil, 0, fmt.Errorf("segment: %s: %d trailing bytes", path, len(b))
	}
	if err := db.RestoreIndexes(acc, groups); err != nil {
		return nil, nil, 0, loadErr(path, err)
	}
	return db, acc, epoch, nil
}

// Prune removes segments older than the keep newest ones. Pruning is
// best-effort cleanup after a checkpoint — removal errors are ignored
// (an un-pruned segment is just disk space).
func Prune(dir string, keep int) {
	segs := List(dir)
	for i := keep; i < len(segs); i++ {
		os.Remove(segs[i].Path)
	}
}

// syncDir fsyncs a directory so a rename into it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func loadErr(path string, err error) error {
	return fmt.Errorf("segment: %s: %w", path, err)
}

// Smallest encodings of one element of each counted list: a constraint
// is a string, two string lists and a u64 bound; a string, an index group
// and a witness position each take at least one u32.
const (
	minConstraintBytes = 4 + 4 + 4 + 8
	minU32Bytes        = 4
)

// capFor bounds a preallocation sized by a decoded count n. Every element
// occupies at least minBytes of the remaining input, so a count rest
// cannot hold comes from a corrupt file and must not drive the
// allocation; the decode loop then fails with its usual truncation error.
func capFor(n uint64, rest []byte, minBytes int) int {
	return int(min(n, uint64(len(rest)/minBytes)))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendStr(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func takeU32(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("truncated u32")
	}
	return be32(b[:4]), b[4:], nil
}

func takeU64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("truncated u64")
	}
	v := uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	return v, b[8:], nil
}

func takeStr(b []byte) (string, []byte, error) {
	n, rest, err := takeU32(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(rest)) < uint64(n) {
		return "", nil, fmt.Errorf("truncated string (want %d, have %d)", n, len(rest))
	}
	return string(rest[:n]), rest[n:], nil
}

func takeStrs(b []byte) ([]string, []byte, error) {
	n, rest, err := takeU32(b)
	if err != nil {
		return nil, nil, err
	}
	out := make([]string, 0, capFor(uint64(n), rest, minU32Bytes))
	for i := uint32(0); i < n; i++ {
		var s string
		s, rest, err = takeStr(rest)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, s)
	}
	return out, rest, nil
}
