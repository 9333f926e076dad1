package storage

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/bitmatrix"
	"repro/internal/telemetry"
)

// SpillManager offloads intermediate bit matrices to disk when they exceed
// memory. Following §5.3, each worker writes to a dedicated file, so
// concurrent spills never contend; matrices are identified by a handle and
// reloaded on demand.
type SpillManager struct {
	dir string

	// Budget, when set, meters the transient encode/decode buffers of
	// spill writes and loads against a shared limit (reserved around each
	// I/O, released before returning). Set it before first use; it is
	// read without synchronization.
	Budget Budget

	mu      sync.Mutex
	files   map[int]*os.File // worker -> spill file
	next    int
	handles map[int]spillRecord
	bytes   int64
}

// Budget meters memory against a shared limit: spill buffers here, bit
// matrices in vexpand. It is satisfied by exec.Accountant; the interface is
// structural so the leaf packages never import the execution layer.
type Budget interface {
	// Reserve claims n bytes, returning an error when the limit cannot be
	// met even after pressure relief.
	Reserve(n int64) error
	// Release returns n previously reserved bytes.
	Release(n int64)
}

type spillRecord struct {
	worker int
	offset int64
	size   int64 // bytes of the matrix's bitmatrix encoding
}

// Handle identifies a spilled matrix.
type Handle int

// NewSpillManager creates a manager rooted at dir (created if missing).
func NewSpillManager(dir string) (*SpillManager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	return &SpillManager{
		dir:     dir,
		files:   make(map[int]*os.File),
		handles: make(map[int]spillRecord),
	}, nil
}

// SpilledBytes reports the total bytes written so far.
func (s *SpillManager) SpilledBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Sync flushes every open spill file to stable storage. Spilled matrices
// are re-read later in the same query, so a lost page silently corrupts
// results; callers that checkpoint long expansions should Sync at step
// boundaries and must propagate the error.
func (s *SpillManager) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, f := range s.files {
		if err := f.Sync(); err != nil && first == nil {
			first = fmt.Errorf("storage: %w", err)
		}
	}
	return first
}

// Spill writes m to worker's dedicated spill file and returns a handle.
// Safe for concurrent use by distinct workers.
func (s *SpillManager) Spill(worker int, m *bitmatrix.Matrix) (Handle, error) {
	return s.SpillContext(context.Background(), worker, m)
}

// SpillContext is Spill with trace propagation: when ctx carries an active
// trace, the write records a "spill.write" span with the bytes written and
// whether a new spill file was created. Spill byte/file totals always
// accumulate into the telemetry registry.
func (s *SpillManager) SpillContext(ctx context.Context, worker int, m *bitmatrix.Matrix) (Handle, error) {
	// Cancellation checkpoint before touching the disk: a canceled query
	// must not keep spilling steps it will never read back.
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	_, sp := telemetry.StartSpan(ctx, "spill.write")
	defer sp.End()

	s.mu.Lock()
	f, ok := s.files[worker]
	if !ok {
		var err error
		f, err = os.OpenFile(filepath.Join(s.dir, fmt.Sprintf("worker-%d.spill", worker)),
			os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
		if err != nil {
			s.mu.Unlock()
			return 0, fmt.Errorf("storage: %w", err)
		}
		s.files[worker] = f
		telemetry.SpillWriteFiles.Inc()
		sp.SetInt("new_file", 1)
	}
	id := s.next
	s.next++
	s.mu.Unlock()

	// Per-worker files mean only this goroutine appends to f.
	off, err := f.Seek(0, 2)
	if err != nil {
		return 0, fmt.Errorf("storage: %w", err)
	}
	size := int64(m.EncodedLen())
	if s.Budget != nil {
		if err := s.Budget.Reserve(size); err != nil {
			return 0, err
		}
		defer s.Budget.Release(size)
	}
	buf := m.AppendBinary(make([]byte, 0, size))
	if _, err := f.Write(buf); err != nil {
		return 0, fmt.Errorf("storage: %w", err)
	}

	s.mu.Lock()
	s.handles[id] = spillRecord{
		worker: worker, offset: off,
		size: size,
	}
	s.bytes += int64(len(buf))
	s.mu.Unlock()
	telemetry.SpillWriteBytes.Add(int64(len(buf)))
	telemetry.CurrentQuery(ctx).AddSpillWriteBytes(int64(len(buf)))
	sp.SetInt("bytes", int64(len(buf)))
	sp.SetInt("worker", int64(worker))
	return Handle(id), nil
}

// Load reads a spilled matrix back into memory. It is the context-less
// compatibility wrapper for accessor paths (vexpand.Result.StepMatrix) that
// hold no context by design: a load is a bounded read of one local file,
// and cancellation is enforced where the matrices are produced. Traced or
// cancellable callers use LoadContext.
func (s *SpillManager) Load(h Handle) (*bitmatrix.Matrix, error) {
	return s.LoadContext(context.Background(), h)
}

// LoadContext is Load with trace propagation: an active trace records a
// "spill.load" span with the bytes read. Read-back totals accumulate into
// the telemetry registry.
func (s *SpillManager) LoadContext(ctx context.Context, h Handle) (*bitmatrix.Matrix, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	_, sp := telemetry.StartSpan(ctx, "spill.load")
	defer sp.End()

	s.mu.Lock()
	rec, ok := s.handles[int(h)]
	f := s.files[rec.worker]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("storage: unknown spill handle %d", h)
	}
	if f == nil {
		return nil, fmt.Errorf("storage: spill file for worker %d already closed", rec.worker)
	}
	if s.Budget != nil {
		if err := s.Budget.Reserve(rec.size); err != nil {
			return nil, err
		}
		defer s.Budget.Release(rec.size)
	}
	buf := make([]byte, rec.size)
	if _, err := f.ReadAt(buf, rec.offset); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	telemetry.SpillReadBytes.Add(int64(len(buf)))
	telemetry.CurrentQuery(ctx).AddSpillReadBytes(int64(len(buf)))
	sp.SetInt("bytes", int64(len(buf)))
	m, err := bitmatrix.Decode(buf)
	if err != nil {
		return nil, fmt.Errorf("storage: spill record: %w", err)
	}
	return m, nil
}

// Close closes and removes all spill files.
func (s *SpillManager) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, f := range s.files {
		name := f.Name()
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		if err := os.Remove(name); err != nil && first == nil {
			first = err
		}
	}
	s.files = map[int]*os.File{}
	s.handles = map[int]spillRecord{}
	return first
}
