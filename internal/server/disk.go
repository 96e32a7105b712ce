package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"

	"github.com/zipchannel/zipchannel/internal/fault"
	"github.com/zipchannel/zipchannel/internal/obs"
)

// Fault-point names the disk backend consults (armed via the same -faults
// DSL as every other point; disarmed points cost one nil/len check).
const (
	// FaultDiskWrite fires on Put: an error injection makes the write
	// fail, which the backend absorbs as a skipped store (degrade to
	// uncached, never to a broken entry).
	FaultDiskWrite = "server.cache.disk.write"
	// FaultDiskRead fires on Get: an error injection makes the read
	// fail, which the backend absorbs as a miss.
	FaultDiskRead = "server.cache.disk.read"
)

// DiskBackend spills codec responses to files under a directory — the
// cold tier of the default hierarchy: slower and bigger than the
// in-memory LRU, surviving entry churn above it. Each entry is one file
// (hex key + ".zc") laid out as a 32-byte SHA-256 of the value followed
// by the value, so integrity survives the process: a Get re-hashes what
// it read and a mismatch (torn write, chaos bit-flip) is a detected
// corruption + miss, never wrong bytes. The embedded index keeps recency
// and strict byte accounting; an entry leaving it unlinks its file.
type DiskBackend struct {
	lruIndex[struct{}]
	dir string

	fpWrite *fault.Point
	fpRead  *fault.Point
}

// NewDiskBackend creates (mkdir -p) a disk cache rooted at dir with a
// maxBytes (> 0) value budget, counters under prefix, and fault points
// registered on faults (nil disables injection). The directory is
// scrubbed on open (ScrubDir): leftover put-* temps from a crash are
// removed, torn entries are quarantined, and every intact entry is
// re-indexed in sorted-key order — so a restart after SIGKILL warm-starts
// from whatever the previous process durably wrote, never from a lie.
// A fresh/empty directory scrubs to an empty index at no cost.
func NewDiskBackend(dir string, maxBytes int64, reg *obs.Registry, prefix string, faults *fault.Registry) (*DiskBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d := &DiskBackend{
		dir:     dir,
		fpWrite: faults.Point(FaultDiskWrite),
		fpRead:  faults.Point(FaultDiskRead),
	}
	d.init(maxBytes, reg, prefix, func(key Key) { os.Remove(d.path(key)) })
	if err := d.recover(); err != nil {
		return nil, err
	}
	return d, nil
}

// recover runs the startup scrub and rebuilds the index from intact
// entries. Sorted-key order becomes the recovered recency order (there is
// no durable recency to restore; any deterministic order keeps restarts
// reproducible), and entries beyond the byte budget are evicted from the
// LRU end like any other over-budget state.
func (d *DiskBackend) recover() error {
	rep, err := ScrubDir(d.dir)
	if err != nil {
		return err
	}
	d.reg.Counter(d.prefix + ".scrub.recovered").Add(uint64(rep.Recovered))
	d.reg.Counter(d.prefix + ".scrub.quarantined").Add(uint64(len(rep.Quarantined)))
	d.reg.Counter(d.prefix + ".scrub.temps_removed").Add(uint64(rep.TempsRemoved))
	for _, ent := range rep.Entries {
		d.insert(ent.Key, ent.Bytes, struct{}{})
	}
	d.evict()
	return nil
}

func (d *DiskBackend) path(key Key) string {
	return filepath.Join(d.dir, hex.EncodeToString(key[:])+".zc")
}

// Name implements CacheBackend.
func (d *DiskBackend) Name() string { return "disk" }

// Get implements CacheBackend: an indexed entry is read back from its
// file and integrity-checked. A read error (ENOENT after external
// tampering, injected fault) is a miss; a checksum mismatch additionally
// counts a detected corruption. Either way a damaged entry is dropped so
// the caller's re-put heals it.
func (d *DiskBackend) Get(key Key) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	el, _ := d.find(key)
	if el == nil {
		return nil, false
	}
	if in := d.fpRead.Hit(); in.Kind == fault.KindError {
		d.fail(nil, ".read_errors")
		return nil, false
	}
	raw, err := os.ReadFile(d.path(key))
	if err != nil || len(raw) < sha256.Size {
		d.fail(el, ".read_errors")
		return nil, false
	}
	var sum [sha256.Size]byte
	copy(sum[:], raw[:sha256.Size])
	val := raw[sha256.Size:]
	if sha256.Sum256(val) != sum {
		d.fail(el, ".corruptions_detected")
		return nil, false
	}
	d.hit(el)
	return val, true
}

// Put implements CacheBackend: value written as sum||val via a temp file
// + rename so a crash mid-write can never leave a half entry under a
// valid name. A failed write (disk full, injected fault) skips the store
// — the response was already computed, so the degradation is "uncached",
// never "broken".
func (d *DiskBackend) Put(key Key, val []byte) {
	if int64(len(val)) > d.max {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if in := d.fpWrite.Hit(); in.Kind == fault.KindError {
		d.reg.Counter(d.prefix + ".write_errors").Inc()
		return
	}
	if err := d.writeEntry(key, val); err != nil {
		d.reg.Counter(d.prefix + ".write_errors").Inc()
		return
	}
	d.insert(key, int64(len(val)), struct{}{})
	d.evict()
}

func (d *DiskBackend) writeEntry(key Key, val []byte) error {
	sum := sha256.Sum256(val)
	tmp, err := os.CreateTemp(d.dir, "put-*")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(sum[:]); err == nil {
		_, err = tmp.Write(val)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), d.path(key))
}

// CorruptStored implements CacheBackend: the file's value region is
// damaged while the stored checksum keeps the original digest — the next
// Get must detect it.
func (d *DiskBackend) CorruptStored(key Key, in fault.Injection) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.items[key]; !ok {
		return
	}
	raw, err := os.ReadFile(d.path(key))
	if err != nil || len(raw) <= sha256.Size {
		return
	}
	bad := append(raw[:sha256.Size:sha256.Size], in.CorruptCopy(raw[sha256.Size:])...)
	os.WriteFile(d.path(key), bad, 0o644)
}

// Close implements CacheBackend: drops the index and deletes the entry
// files (the cache directory is disposable state, usually a temp dir).
func (d *DiskBackend) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for el := d.order.Front(); el != nil; el = el.Next() {
		if err := os.Remove(d.path(el.Value.(*lruEntry[struct{}]).key)); err != nil && first == nil {
			first = err
		}
	}
	d.order.Init()
	d.items = map[Key]*list.Element{}
	d.size = 0
	d.sync()
	return first
}
