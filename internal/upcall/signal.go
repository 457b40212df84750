package upcall

import (
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"
)

// Table 1 methodology, verbatim from §5.3: a child process registers
// handlers for a group of twenty signals and suspends itself; the parent
// posts the twenty signals and wakes it; the child handles them and
// suspends again. The same trial with the child ignoring the signals is
// subtracted, and the difference divided by the batch size is the
// per-signal handling time — the paper's proxy for an upcall.
//
// The child is this same executable re-executed with GRAFTLAB_SIGNAL_CHILD
// set; programs embedding the measurement call SignalChildMain early in
// main (it is a no-op unless the variable is set).

// signalChildEnv selects child mode: "handle" or "ignore".
const signalChildEnv = "GRAFTLAB_SIGNAL_CHILD"

// signalBatchEnv carries the batch size to the child.
const signalBatchEnv = "GRAFTLAB_SIGNAL_BATCH"

// DefaultSignalBatch matches the paper's twenty signals.
const DefaultSignalBatch = 20

// batchSignals returns n distinct real-time signals. Linux real-time
// signals queue rather than coalesce, and none are used by the Go
// runtime, so delivery counts are exact.
func batchSignals(n int) []syscall.Signal {
	sigs := make([]syscall.Signal, n)
	for i := range sigs {
		sigs[i] = syscall.Signal(36 + i) // SIGRTMIN+2 onwards
	}
	return sigs
}

// SignalChildMain turns the current process into the measurement child if
// GRAFTLAB_SIGNAL_CHILD is set; otherwise it returns immediately. Call it
// first thing in main.
func SignalChildMain() {
	mode := os.Getenv(signalChildEnv)
	if mode == "" {
		return
	}
	batch := DefaultSignalBatch
	if s := os.Getenv(signalBatchEnv); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 {
			batch = v
		}
	}
	sigs := batchSignals(batch)
	pid := syscall.Getpid()
	switch mode {
	case "handle":
		ch := make(chan os.Signal, batch*2)
		osSigs := make([]os.Signal, len(sigs))
		for i, s := range sigs {
			osSigs[i] = s
		}
		signal.Notify(ch, osSigs...)
		for {
			if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
				os.Exit(1)
			}
			// Awake: handle exactly one batch, then suspend again.
			for i := 0; i < batch; i++ {
				<-ch
			}
		}
	case "ignore":
		osSigs := make([]os.Signal, len(sigs))
		for i, s := range sigs {
			osSigs[i] = s
		}
		signal.Ignore(osSigs...)
		for {
			if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
				os.Exit(1)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown %s mode %q\n", signalChildEnv, mode)
		os.Exit(2)
	}
}

// SignalTiming is one Table 1 measurement.
type SignalTiming struct {
	Batch     int
	Iters     int
	Handled   time.Duration // total, child handling the batch
	Ignored   time.Duration // total, child ignoring the batch
	PerSignal time.Duration // (Handled-Ignored) / (Batch*Iters)
}

// MeasureSignal runs the Table 1 trial pair. exe is the path of an
// executable that calls SignalChildMain (use os.Executable()).
func MeasureSignal(exe string, batch, iters int) (SignalTiming, error) {
	if batch <= 0 || iters <= 0 {
		return SignalTiming{}, fmt.Errorf("upcall: batch and iters must be positive")
	}
	handled, err := signalTrial(exe, "handle", batch, iters)
	if err != nil {
		return SignalTiming{}, fmt.Errorf("upcall: handled trial: %w", err)
	}
	ignored, err := signalTrial(exe, "ignore", batch, iters)
	if err != nil {
		return SignalTiming{}, fmt.Errorf("upcall: ignored trial: %w", err)
	}
	per := (handled - ignored) / time.Duration(batch*iters)
	if per < 0 {
		per = 0 // noise can invert the subtraction on fast machines
	}
	return SignalTiming{
		Batch: batch, Iters: iters,
		Handled: handled, Ignored: ignored, PerSignal: per,
	}, nil
}

func signalTrial(exe, mode string, batch, iters int) (time.Duration, error) {
	env := append(os.Environ(),
		signalChildEnv+"="+mode,
		signalBatchEnv+"="+strconv.Itoa(batch),
	)
	pid, err := syscall.ForkExec(exe, []string{exe}, &syscall.ProcAttr{
		Env:   env,
		Files: []uintptr{0, 1, 2},
	})
	if err != nil {
		return 0, err
	}
	// Watchdog: a wedged child must not hang the benchmark.
	watchdog := time.AfterFunc(60*time.Second, func() {
		syscall.Kill(pid, syscall.SIGKILL) //nolint:errcheck
	})
	defer func() {
		watchdog.Stop()
		syscall.Kill(pid, syscall.SIGKILL) //nolint:errcheck
		var ws syscall.WaitStatus
		syscall.Wait4(pid, &ws, 0, nil) //nolint:errcheck
	}()

	waitStopped := func() error {
		for {
			var ws syscall.WaitStatus
			if _, err := syscall.Wait4(pid, &ws, syscall.WUNTRACED, nil); err != nil {
				return err
			}
			if ws.Stopped() {
				return nil
			}
			if ws.Exited() || ws.Signaled() {
				return fmt.Errorf("child died: %v", ws)
			}
		}
	}
	if err := waitStopped(); err != nil {
		return 0, err
	}
	sigs := batchSignals(batch)
	t0 := time.Now()
	for it := 0; it < iters; it++ {
		for _, s := range sigs {
			if err := syscall.Kill(pid, s); err != nil {
				return 0, err
			}
		}
		if err := syscall.Kill(pid, syscall.SIGCONT); err != nil {
			return 0, err
		}
		if err := waitStopped(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}
