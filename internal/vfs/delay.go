package vfs

import (
	"io"
	"time"
)

// DiskModel describes a simple disk for DelayFS: a fixed per-open seek cost
// and a transfer bandwidth. It is the live-run analogue of the simulator's
// disk resource (internal/platform carries the calibrated per-platform
// values).
type DiskModel struct {
	// Seek is charged once per Open/ReadFile.
	Seek time.Duration
	// BytesPerSecond is the sustained transfer bandwidth.
	BytesPerSecond int64
}

// TransferTime returns the modelled time to read n bytes, excluding seek.
func (d DiskModel) TransferTime(n int64) time.Duration {
	if d.BytesPerSecond <= 0 {
		return 0
	}
	return time.Duration(n * int64(time.Second) / d.BytesPerSecond)
}

// DelayFS wraps an FS and sleeps according to a DiskModel on each operation,
// so that a fast in-memory corpus exhibits the I/O profile of a spinning
// disk. Concurrent readers sleep independently, emulating command queueing
// with effectively unlimited parallelism; combine with a semaphore-guarded
// FS for stricter disks.
type DelayFS struct {
	fs    FS
	model DiskModel
	// sleep is replaceable for tests.
	sleep func(time.Duration)
}

// NewDelayFS wraps fs with the given disk model.
func NewDelayFS(fs FS, model DiskModel) *DelayFS {
	return &DelayFS{fs: fs, model: model, sleep: time.Sleep}
}

// Open implements FS; it charges the seek immediately and the transfer time
// proportionally as data is read.
func (d *DelayFS) Open(name string) (io.ReadCloser, error) {
	d.sleep(d.model.Seek)
	rc, err := d.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &delayedReader{rc: rc, d: d}, nil
}

// ReadFile implements FS; it charges seek plus full transfer time.
func (d *DelayFS) ReadFile(name string) ([]byte, error) {
	d.sleep(d.model.Seek)
	data, err := d.fs.ReadFile(name)
	if err != nil {
		return nil, err
	}
	d.sleep(d.model.TransferTime(int64(len(data))))
	return data, err
}

// ReadDir implements FS; a directory read costs one seek.
func (d *DelayFS) ReadDir(name string) ([]DirEntry, error) {
	d.sleep(d.model.Seek)
	return d.fs.ReadDir(name)
}

// Stat implements FS; metadata is assumed cached (no delay).
func (d *DelayFS) Stat(name string) (DirEntry, error) {
	return d.fs.Stat(name)
}

type delayedReader struct {
	rc io.ReadCloser
	d  *DelayFS
}

func (r *delayedReader) Read(p []byte) (int, error) {
	n, err := r.rc.Read(p)
	if n > 0 {
		r.d.sleep(r.d.model.TransferTime(int64(n)))
	}
	return n, err
}

func (r *delayedReader) Close() error { return r.rc.Close() }

// Limited wraps an FS and caps how many file operations may be in flight
// at once — the live analogue of the simulator's disk queue depth. A
// depth-1 Limited over a DelayFS reproduces the paper's 8-core machine on
// real goroutines: reads serialize, and no thread count can beat the disk
// floor (BenchmarkLiveDiskBound).
type Limited struct {
	fs  FS
	sem chan struct{}
}

// NewLimited wraps fs with a concurrency limit of depth (min 1).
func NewLimited(fs FS, depth int) *Limited {
	if depth < 1 {
		depth = 1
	}
	return &Limited{fs: fs, sem: make(chan struct{}, depth)}
}

func (l *Limited) acquire() { l.sem <- struct{}{} }
func (l *Limited) release() { <-l.sem }

// Open implements FS. The limit is held only for the Open call itself;
// streaming reads through the returned reader re-acquire per Read.
func (l *Limited) Open(name string) (io.ReadCloser, error) {
	l.acquire()
	rc, err := l.fs.Open(name)
	l.release()
	if err != nil {
		return nil, err
	}
	return &limitedReader{rc: rc, l: l}, nil
}

// ReadFile implements FS; the whole read counts as one operation.
func (l *Limited) ReadFile(name string) ([]byte, error) {
	l.acquire()
	defer l.release()
	return l.fs.ReadFile(name)
}

// ReadDir implements FS.
func (l *Limited) ReadDir(name string) ([]DirEntry, error) {
	l.acquire()
	defer l.release()
	return l.fs.ReadDir(name)
}

// Stat implements FS (metadata is assumed cached: no limit).
func (l *Limited) Stat(name string) (DirEntry, error) {
	return l.fs.Stat(name)
}

type limitedReader struct {
	rc io.ReadCloser
	l  *Limited
}

func (r *limitedReader) Read(p []byte) (int, error) {
	r.l.acquire()
	defer r.l.release()
	return r.rc.Read(p)
}

func (r *limitedReader) Close() error { return r.rc.Close() }

var (
	_ FS = (*DelayFS)(nil)
	_ FS = (*Limited)(nil)
)
