// Package annstore is the persistent tier under the annotation-artifact
// cache: a content-addressed, crash-safe artifact store on local disk.
// The paper's scaling story is that annotation work happens once "at the
// server or a proxy" and is amortised over every handheld (§3) — but
// amortisation only holds if the artifacts outlive one process. The
// store lets a drained or crashed streamd restart warm: tracks, encoded
// variants and device level tables computed before the restart are
// served again byte-identically, with zero recomputation.
//
// Crash safety is structural, not best-effort:
//
//   - Every artifact is written atomically: temp file in the same
//     directory, fsync, rename, directory fsync. A kill -9 at any
//     instant leaves either the old file or the new file, never a torn
//     mix under the final name.
//   - Every file carries a checksummed self-describing header (the full
//     key, payload length, payload CRC). Reads re-verify the payload
//     CRC, so damage is detected at the moment it would matter.
//   - A manifest journal (one self-validating record per mutation)
//     makes startup a single sequential read plus one small header read
//     per entry instead of a full store read. A torn journal tail is
//     truncated and the orphan scan re-adopts — after full
//     verification — any artifact the lost records described.
//   - Anything that fails validation is quarantined (moved aside, never
//     served, kept for inspection) and counted, so a corrupt entry
//     costs one recomputation, not a wrong answer.
//
// Keys are anncache.Key — (kind, content digest, quality index, device
// profile) — so the disk tier addresses exactly what the memory tier
// does and a read-through miss path is a straight key pass-down.
package annstore

import (
	"container/list"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/anncache"
	"repro/internal/obs"
)

// Key identifies one stored artifact, exactly as the memory tier keys
// it: (kind, content digest, quality index, device profile).
type Key = anncache.Key

// Options tunes Open.
type Options struct {
	// MaxBytes is the byte budget across artifact files (<= 0 means
	// unlimited). When a Put exceeds it, least-recently-used entries
	// are deleted from disk.
	MaxBytes int64
	// Logf, when non-nil, receives quarantine and recovery notices.
	Logf func(format string, args ...any)
}

// Store is the disk tier. All methods are safe for concurrent use.
type Store struct {
	mu            sync.Mutex
	dir           string
	objectsDir    string
	quarantineDir string
	journalPath   string
	journal       *os.File
	journalRecs   int // records in the journal file, live + dead
	capacity      int64
	used          int64
	ll            *list.List // front = most recently used; values are *sentry
	index         map[Key]*list.Element
	logf          func(string, ...any)
	closed        bool
	quarantined   int64 // lifetime count, including Open-time

	reg       *obs.Registry
	regLabels []obs.Label
	// Tallies accumulated before an observer attaches (Open-time
	// quarantines); SetObserver flushes them into the counters.
	pendingCorrupt     uint64
	pendingQuarantined uint64

	openRep Report
}

// sentry is one indexed artifact file.
type sentry struct {
	key        Key
	file       string
	size       int64 // whole file: header + payload
	payloadCRC uint32
}

var errClosed = errors.New("annstore: store is closed")

// Open loads (or creates) the store at dir: it replays the journal,
// validates every referenced file's size and header, quarantines
// anything torn or corrupt, removes leftover temp files, and adopts
// journal-less artifacts after fully verifying them. The scan reads
// only headers, so startup cost is one small read per entry (see
// BenchmarkStoreWarmStart); payloads are CRC-checked on every Get.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		dir:           dir,
		objectsDir:    filepath.Join(dir, "objects"),
		quarantineDir: filepath.Join(dir, "quarantine"),
		journalPath:   filepath.Join(dir, "journal"),
		capacity:      opts.MaxBytes,
		ll:            list.New(),
		index:         make(map[Key]*list.Element),
		logf:          opts.Logf,
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	for _, d := range []string{s.objectsDir, s.quarantineDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	dirty, err := s.scan()
	if err != nil {
		return nil, err
	}
	if dirty {
		if err := s.compactLocked(); err != nil {
			return nil, err
		}
	}
	j, err := os.OpenFile(s.journalPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	s.journal = j
	s.evictLocked() // a lowered budget applies immediately
	return s, nil
}

// scan rebuilds the in-memory index from the journal and the objects
// directory; it returns whether the journal needs compacting (torn
// tail, dead records, drops, or adoptions).
func (s *Store) scan() (dirty bool, err error) {
	data, err := os.ReadFile(s.journalPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return false, err
	}
	recs, clean := replayJournal(data)
	if !clean {
		s.logf("annstore: journal tail torn or damaged, truncating (will re-verify orphans)")
		dirty = true
	}
	s.journalRecs = len(recs)

	// Last record per file wins; replay order carries recency.
	live := map[string]journalRec{}
	var order []string
	for _, r := range recs {
		switch {
		case r.put:
			live[r.file] = r
			order = append(order, r.file)
		case r.touch:
			// Recency only: re-append so the entry replays as newer.
			if _, ok := live[r.file]; ok {
				order = append(order, r.file)
			}
		default:
			if _, ok := live[r.file]; ok {
				delete(live, r.file)
				dirty = true
			}
		}
	}
	if len(order) > len(live) {
		dirty = true // dead puts in the journal
	}

	// Validate journalled entries, newest first so ties keep the most
	// recent copy; PushBack preserves most-recent-first order.
	inIndex := map[string]bool{}
	for i := len(order) - 1; i >= 0; i-- {
		file := order[i]
		rec, ok := live[file]
		if !ok || inIndex[file] {
			continue
		}
		inIndex[file] = true
		path := filepath.Join(s.objectsDir, file)
		fi, err := os.Stat(path)
		if errors.Is(err, os.ErrNotExist) {
			// Evicted or lost before the crash; drop the record.
			dirty = true
			continue
		}
		if err != nil {
			return dirty, err
		}
		if fi.Size() != rec.size {
			// Journalled size disagrees with the file: torn or damaged.
			s.quarantineFile(file, fmt.Sprintf("size %d, journal says %d", fi.Size(), rec.size))
			s.openRep.Quarantined++
			dirty = true
			continue
		}
		h, err := readFileHeader(path)
		if err != nil || h.headerSize+h.payloadLen != fi.Size() || h.payloadCRC != rec.crc {
			s.quarantineFile(file, "header validation failed")
			s.openRep.Quarantined++
			dirty = true
			continue
		}
		if _, dup := s.index[h.key]; dup {
			// Two files claim one key (possible only via hand-edited
			// stores); keep the newer, drop the older.
			os.Remove(path)
			dirty = true
			continue
		}
		el := s.ll.PushBack(&sentry{key: h.key, file: file, size: fi.Size(), payloadCRC: h.payloadCRC})
		s.index[h.key] = el
		s.used += fi.Size()
		s.openRep.Entries++
	}

	// Sweep the objects directory: delete temp leftovers, and fully
	// verify then adopt (or quarantine) artifacts the journal lost.
	des, err := os.ReadDir(s.objectsDir)
	if err != nil {
		return dirty, err
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || inIndex[name] {
			continue
		}
		if !strings.HasSuffix(name, artifactSuffix) {
			os.Remove(filepath.Join(s.objectsDir, name))
			s.openRep.TmpRemoved++
			continue
		}
		dirty = true
		if s.adoptOrphan(name) {
			s.openRep.Adopted++
			s.openRep.Entries++
		} else {
			s.openRep.Quarantined++
		}
	}
	return dirty, nil
}

// adoptOrphan fully verifies an un-journalled artifact file and, when
// valid, indexes it as most-recently used (it was written just before
// the crash that lost its journal record). Invalid files are
// quarantined. Reports whether the file was adopted.
func (s *Store) adoptOrphan(file string) bool {
	path := filepath.Join(s.objectsDir, file)
	data, err := os.ReadFile(path)
	if err != nil {
		s.quarantineFile(file, err.Error())
		return false
	}
	key, payload, err := decodeArtifact(data)
	if err != nil || fileName(key) != file {
		s.quarantineFile(file, "orphan failed verification")
		return false
	}
	if _, dup := s.index[key]; dup {
		os.Remove(path)
		return false
	}
	el := s.ll.PushFront(&sentry{
		key: key, file: file, size: int64(len(data)),
		payloadCRC: crc32.Checksum(payload, castagnoli),
	})
	s.index[key] = el
	s.used += int64(len(data))
	s.logf("annstore: adopted orphan artifact %s after verification", file)
	return true
}

const artifactSuffix = ".art"

// fileName maps a key to its artifact file name: a readable sanitised
// prefix plus an FNV-1a hash of the exact key, so sanitisation can
// never collide two keys onto one file.
func fileName(k Key) string {
	h := fnv.New64a()
	io.WriteString(h, k.Kind)
	h.Write([]byte{0})
	io.WriteString(h, k.Digest)
	h.Write([]byte{0})
	io.WriteString(h, strconv.Itoa(k.Quality))
	h.Write([]byte{0})
	io.WriteString(h, k.Device)
	base := sanitize(k.Kind) + "-" + sanitize(k.Digest) + "-q" + strconv.Itoa(k.Quality)
	if k.Device != "" {
		base += "-" + sanitize(k.Device)
	}
	if len(base) > 100 {
		base = base[:100]
	}
	return fmt.Sprintf("%s-%016x%s", base, h.Sum64(), artifactSuffix)
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		}
		return '_'
	}, s)
}

// SetObserver publishes the store's metrics on r with the given labels
// (e.g. role=server). Counts accumulated before the observer attached
// (Open-time quarantines) are flushed into the counters.
func (s *Store) SetObserver(r *obs.Registry, labels ...obs.Label) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = r
	s.regLabels = labels
	if r == nil {
		return
	}
	if s.pendingCorrupt > 0 {
		r.Counter("annstore_corrupt_total", corruptHelp,
			append([]obs.Label{obs.L("kind", "unknown")}, labels...)...).Add(s.pendingCorrupt)
		s.pendingCorrupt = 0
	}
	if s.pendingQuarantined > 0 {
		r.Counter("annstore_quarantined_total", quarantinedHelp, labels...).Add(s.pendingQuarantined)
		s.pendingQuarantined = 0
	}
	s.gauges()
}

const (
	corruptHelp     = "Store artifacts that failed checksum or structural validation."
	quarantinedHelp = "Store files moved to quarantine instead of being served."
)

// count and gauges require s.mu held.
func (s *Store) count(name, help, kind string) {
	if s.reg == nil {
		return
	}
	labels := s.regLabels
	if kind != "" {
		labels = append([]obs.Label{obs.L("kind", kind)}, s.regLabels...)
	}
	s.reg.Counter(name, help, labels...).Inc()
}

func (s *Store) gauges() {
	if s.reg == nil {
		return
	}
	s.reg.Gauge("annstore_entries", "Artifacts resident in the persistent store.", s.regLabels...).
		Set(float64(s.ll.Len()))
	s.reg.Gauge("annstore_bytes", "Bytes of artifact files resident in the persistent store.", s.regLabels...).
		Set(float64(s.used))
}

// Get returns the stored payload for key. The whole file is re-read and
// CRC-verified on every call; a file that fails verification is
// quarantined and reported as a miss, so a corrupt entry costs a
// recomputation, never a wrong answer.
func (s *Store) Get(key Key) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	el, ok := s.index[key]
	if !ok {
		s.count("annstore_misses_total", "Store lookups that found no entry.", key.Kind)
		return nil, false
	}
	e := el.Value.(*sentry)
	data, err := os.ReadFile(filepath.Join(s.objectsDir, e.file))
	if err == nil {
		k, payload, derr := decodeArtifact(data)
		if derr == nil && k == key {
			s.ll.MoveToFront(el)
			s.appendTouchLocked(e.file)
			s.count("annstore_hits_total", "Store lookups served from disk.", key.Kind)
			return payload, true
		}
		err = derr
		if err == nil {
			err = fmt.Errorf("%w: key mismatch", ErrCorrupt)
		}
	}
	s.logf("annstore: quarantining %s: %v", e.file, err)
	s.dropLocked(el, true)
	s.count("annstore_corrupt_total", corruptHelp, key.Kind)
	s.count("annstore_misses_total", "Store lookups that found no entry.", key.Kind)
	s.gauges()
	return nil, false
}

// Ref locates a stored artifact's payload inside its on-disk file:
// path is the artifact file and the payload occupies [Off, Off+Len).
// Artifact files are only ever replaced by atomic rename, so an open
// Ref either reads exactly the content that was indexed or fails to
// open (the entry was evicted) — never a torn mix. Refs carry no CRC
// protection of their own; callers pair them with a verifying Get.
type Ref struct {
	Path string
	Off  int64
	Len  int64
}

// GetRef returns the payload location for key without reading the
// payload. Unlike Get it does not bump recency or verify the payload
// CRC, so the bytes at the location are unverified: a reader must not
// serve them without checking them itself.
func (s *Store) GetRef(key Key) (Ref, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Ref{}, false
	}
	el, ok := s.index[key]
	if !ok {
		return Ref{}, false
	}
	e := el.Value.(*sentry)
	path := filepath.Join(s.objectsDir, e.file)
	h, err := readFileHeader(path)
	if err != nil || h.key != key {
		return Ref{}, false
	}
	return Ref{Path: path, Off: h.headerSize, Len: h.payloadLen}, true
}

// Put stores payload under key, replacing any previous artifact. The
// write is atomic (temp + fsync + rename + dir fsync) and journalled
// only after it is durable, so a crash at any point leaves either the
// old entry or the new one. Re-putting identical content is a cheap
// recency bump.
func (s *Store) Put(key Key, payload []byte) error {
	content, err := encodeArtifact(key, payload)
	if err != nil {
		return err
	}
	crc := crc32.Checksum(payload, castagnoli)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	if el, ok := s.index[key]; ok {
		e := el.Value.(*sentry)
		if e.size == int64(len(content)) && e.payloadCRC == crc {
			s.ll.MoveToFront(el)
			return nil
		}
	}
	file := fileName(key)
	if err := WriteFileAtomic(filepath.Join(s.objectsDir, file), content); err != nil {
		return err
	}
	if err := s.appendJournalLocked(journalRec{put: true, file: file, size: int64(len(content)), crc: crc}); err != nil {
		return err
	}
	if el, ok := s.index[key]; ok {
		e := el.Value.(*sentry)
		s.used += int64(len(content)) - e.size
		e.size = int64(len(content))
		e.payloadCRC = crc
		s.ll.MoveToFront(el)
	} else {
		el := s.ll.PushFront(&sentry{key: key, file: file, size: int64(len(content)), payloadCRC: crc})
		s.index[key] = el
		s.used += int64(len(content))
	}
	s.count("annstore_puts_total", "Artifacts written to the persistent store.", key.Kind)
	s.evictLocked()
	s.gauges()
	return nil
}

// evictLocked deletes least-recently-used artifacts until the byte
// budget holds. Like the memory tier, the newest entry always stays, so
// one oversized artifact still persists (monopolising the store).
func (s *Store) evictLocked() {
	if s.capacity <= 0 {
		return
	}
	for s.used > s.capacity && s.ll.Len() > 1 {
		el := s.ll.Back()
		e := el.Value.(*sentry)
		s.dropLocked(el, false)
		s.count("annstore_evictions_total", "Store artifacts deleted to stay in the byte budget.", e.key.Kind)
	}
}

// dropLocked removes an indexed entry; quarantine moves the file aside
// for inspection, otherwise it is deleted. Either way a journal del
// record is appended (best effort — on failure the next Open drops the
// stale record anyway).
func (s *Store) dropLocked(el *list.Element, quarantine bool) {
	e := el.Value.(*sentry)
	s.ll.Remove(el)
	delete(s.index, e.key)
	s.used -= e.size
	if quarantine {
		s.quarantineFile(e.file, "")
	} else {
		os.Remove(filepath.Join(s.objectsDir, e.file))
	}
	if s.journal != nil {
		if err := s.appendJournalLocked(journalRec{file: e.file}); err != nil {
			s.logf("annstore: journal del failed: %v", err)
		}
	}
}

// quarantineFile moves objects/file into the quarantine directory
// (replacing any previous quarantined copy of the same name) and counts
// it. Failing that, the file is deleted — it must never be served.
func (s *Store) quarantineFile(file, why string) {
	if why != "" {
		s.logf("annstore: quarantining %s: %s", file, why)
	}
	src := filepath.Join(s.objectsDir, file)
	if err := os.Rename(src, filepath.Join(s.quarantineDir, file)); err != nil {
		os.Remove(src)
	}
	s.quarantined++
	if s.reg == nil {
		s.pendingQuarantined++
		if why != "" {
			s.pendingCorrupt++
		}
	} else {
		s.count("annstore_quarantined_total", quarantinedHelp, "")
	}
}

// appendTouchLocked records read recency, without fsync: a lost tail
// of touches only degrades eviction ordering after a crash, so the
// durability cost of syncing every read is not worth paying.
func (s *Store) appendTouchLocked(file string) {
	if s.journal == nil {
		return
	}
	if _, err := s.journal.Write(appendJournalRec(nil, journalRec{touch: true, file: file})); err != nil {
		s.logf("annstore: journal touch failed: %v", err)
		return
	}
	s.journalRecs++
	if s.journalRecs > 2*s.ll.Len()+64 {
		if err := s.compactJournalLocked(); err != nil {
			s.logf("annstore: journal compaction failed: %v", err)
		}
	}
}

// appendJournalLocked durably appends one record.
func (s *Store) appendJournalLocked(r journalRec) error {
	line := appendJournalRec(nil, r)
	if _, err := s.journal.Write(line); err != nil {
		return err
	}
	if err := s.journal.Sync(); err != nil {
		return err
	}
	s.journalRecs++
	// Compact once dead records dominate, so the journal stays
	// proportional to the live set rather than the mutation history.
	if s.journalRecs > 2*s.ll.Len()+64 {
		if err := s.compactJournalLocked(); err != nil {
			s.logf("annstore: journal compaction failed: %v", err)
		}
	}
	return nil
}

// compactLocked rewrites the journal from the live index (least recent
// first, so replay reproduces the LRU order) with an atomic file swap.
func (s *Store) compactLocked() error {
	var buf []byte
	for el := s.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*sentry)
		buf = appendJournalRec(buf, journalRec{put: true, file: e.file, size: e.size, crc: e.payloadCRC})
	}
	if err := WriteFileAtomic(s.journalPath, buf); err != nil {
		return err
	}
	s.journalRecs = s.ll.Len()
	return nil
}

// compactJournalLocked is the runtime variant: the append handle is
// cycled around the atomic rewrite.
func (s *Store) compactJournalLocked() error {
	if err := s.journal.Close(); err != nil {
		return err
	}
	if err := s.compactLocked(); err != nil {
		// Reopen the (old or new) journal either way so appends keep
		// working; worst case the next Open re-verifies a stale tail.
		j, jerr := os.OpenFile(s.journalPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if jerr == nil {
			s.journal = j
		}
		return err
	}
	j, err := os.OpenFile(s.journalPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.journal = j
	return nil
}

// Len returns the number of resident artifacts.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Bytes returns the resident artifact bytes (headers included).
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// Quarantined returns the lifetime count of files quarantined by this
// Store instance, including the Open-time scan.
func (s *Store) Quarantined() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

// Keys returns every resident key, most recently used first.
func (s *Store) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]Key, 0, s.ll.Len())
	for el := s.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*sentry).key)
	}
	return keys
}

// OpenReport returns what the Open-time scan found.
func (s *Store) OpenReport() Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.openRep
}

// Close syncs and closes the journal. The store refuses further use.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.journal.Sync(); err != nil {
		s.journal.Close()
		return err
	}
	return s.journal.Close()
}
