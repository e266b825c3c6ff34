package corpus

import "errors"

// Fault is one injected shard failure mode, used by tests to drive the
// retry, panic-isolation and deadline paths deterministically.
type Fault int

// Fault modes. The engine consults the injector before the shard runner —
// and therefore before any result cache — so an injected fault always
// exercises the real failure path.
const (
	// FaultNone lets the attempt run normally.
	FaultNone Fault = iota
	// FaultError fails the attempt with ErrInjected (a transient error,
	// consumed from the retry budget).
	FaultError
	// FaultPanic panics inside the attempt, exercising the recover-based
	// panic isolation.
	FaultPanic
	// FaultHang blocks the attempt until its deadline (or the job context)
	// expires, exercising the per-attempt timeout.
	FaultHang
)

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultError:
		return "error"
	case FaultPanic:
		return "panic"
	case FaultHang:
		return "hang"
	default:
		return "unknown"
	}
}

// ErrInjected is the error an injected FaultError attempt fails with.
var ErrInjected = errors.New("corpus: injected shard fault")

// Injector decides, per shard attempt, whether to inject a fault. It is
// the corpus counterpart of storetest.FaultFS: deterministic fault
// injection at the shard boundary, so the retry and degradation paths are
// testable rather than theoretical. Implementations must be safe for
// concurrent use (shards run in parallel).
//
// shard is the shard index, attempt the 1-based execution count.
type Injector interface {
	Fault(shard, attempt int) Fault
}
