package grafts

import (
	"fmt"

	"graftlab/internal/kernel"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// Graft-memory layout for the scheduler policy graft.
const (
	// SCCountAddr holds the number of runnable processes.
	SCCountAddr = 0x1000
	// SCBase is the runnable array: per process {pid, tag, runtime-µs},
	// 12 bytes each, in run-queue order.
	SCBase = 0x1010
	// SCStride is the per-process record size.
	SCStride = 12
	// SCMaxProcs bounds the marshaled run queue.
	SCMaxProcs = 256
	// SCMemSize sizes the graft memory.
	SCMemSize = 1 << 16
	// SCDecline is returned by the graft to accept the kernel's default.
	SCDecline = 0xFFFFFFFF
)

// SchedPolicy is the second Prioritization graft: §3.1's client-server
// scheduling example ("a client-server application may not want the
// server to be scheduled unless there is an outstanding client request,
// in which case it should be scheduled ahead of any client"). Entry:
//
//	pick(count) -> index or SCDecline
//
// The policy prefers the server-tagged process (tag == 2) with the least
// accumulated runtime — server priority with round-robin fairness among
// servers — and declines when no server is runnable.
var SchedPolicy = tech.Source{
	Name: "schedpolicy",
	GEL: `
func pick(count) {
	var best = 0xFFFFFFFF;
	var bestrt = 0xFFFFFFFF;
	var i = 0;
	while (i < count) {
		var base = 0x1010 + i * 12;
		if (ld32(base + 4) == 2) {
			var rt = ld32(base + 8);
			if (rt < bestrt) {
				bestrt = rt;
				best = i;
			}
		}
		i = i + 1;
	}
	return best;
}
`,
	Tcl: `
proc pick {count} {
	set best 0xFFFFFFFF
	set bestrt 0xFFFFFFFF
	set i 0
	while {$i < $count} {
		set base [expr {0x1010 + $i * 12}]
		if {[ld32 [expr {$base + 4}]] == 2} {
			set rt [ld32 [expr {$base + 8}]]
			if {$rt < $bestrt} {
				set bestrt $rt
				set best $i
			}
		}
		incr i
	}
	return $best
}
`,
	Compiled: newCompiledSchedPolicy,
	Hipec: map[string]string{
		"pick": `
	; r0 = runnable count; records of {pid, tag, runtime-us} at 0x1010
		movi r1, 0           ; index
		movi r2, 0xFFFFFFFF  ; best index (decline)
		movi r3, 0xFFFFFFFF  ; best runtime
		movi r4, 0x1010      ; record pointer
		movi r8, 2           ; server tag
	loop:
		jge  r1, r0, done
		ldw  r5, [r4+4]      ; tag
		jne  r5, r8, next
		ldw  r6, [r4+8]      ; runtime
		jge  r6, r3, next
		mov  r3, r6
		mov  r2, r1
	next:
		addi r1, r1, 1
		addi r4, r4, 12
		jmp  loop
	done:
		ret  r2
`,
	},
}

func newCompiledSchedPolicy(cfg mem.Config, m *mem.Memory) (tech.Graft, error) {
	g := NewCompiledGraft(m)
	d := m.Data
	mask := m.Mask()
	var pick func(count uint32) uint32
	switch {
	case cfg.Policy == mem.PolicyChecked && cfg.NilCheck:
		pick = func(n uint32) uint32 { return scPick(d, n, ld32nil) }
	case cfg.Policy == mem.PolicyChecked:
		pick = func(n uint32) uint32 { return scPick(d, n, ld32chk) }
	case cfg.Policy == mem.PolicySandbox && cfg.ReadProtect:
		pick = func(n uint32) uint32 {
			return scPick(d, n, func(d []byte, a uint32) uint32 { return ld32sfi(d, a, mask) })
		}
	default:
		pick = func(n uint32) uint32 { return scPick(d, n, le32) }
	}
	g.Register("pick", 1, func(a []uint32) uint32 { return pick(a[0]) })
	return g, nil
}

func scPick(d []byte, count uint32, ld func([]byte, uint32) uint32) uint32 {
	best := uint32(SCDecline)
	bestrt := uint32(0xFFFFFFFF)
	for i := uint32(0); i < count; i++ {
		base := uint32(SCBase) + i*SCStride
		if ld(d, base+4) == 2 {
			if rt := ld(d, base+8); rt < bestrt {
				bestrt = rt
				best = i
			}
		}
	}
	return best
}

// GraftSchedPolicy adapts a loaded scheduler graft to the kernel hook:
// it marshals the run queue into graft memory before each decision.
type GraftSchedPolicy struct {
	m    *mem.Memory
	call tech.Handle
	args [1]uint32
}

// NewGraftSchedPolicy wraps g (which must export "pick").
func NewGraftSchedPolicy(g tech.Graft) *GraftSchedPolicy {
	return &GraftSchedPolicy{m: g.Memory(), call: tech.Resolve(g, "pick")}
}

// PickNext implements kernel.SchedPolicy.
func (p *GraftSchedPolicy) PickNext(runnable []*kernel.Proc) (int, error) {
	n := len(runnable)
	if n > SCMaxProcs {
		n = SCMaxProcs
	}
	p.m.St32U(SCCountAddr, uint32(n))
	for i := 0; i < n; i++ {
		base := uint32(SCBase) + uint32(i)*SCStride
		pr := runnable[i]
		p.m.St32U(base, uint32(pr.PID))
		p.m.St32U(base+4, pr.Tag)
		p.m.St32U(base+8, uint32(pr.Runtime.Microseconds()))
	}
	p.args[0] = uint32(n)
	v, _, err := p.call(telemetry.SpanCtx{}, p.args[:])
	if err != nil {
		return -1, err
	}
	if v == SCDecline {
		return -1, nil
	}
	if v >= uint32(n) {
		return -1, fmt.Errorf("grafts: scheduler graft picked %d of %d", v, n)
	}
	return int(v), nil
}

var _ kernel.SchedPolicy = (*GraftSchedPolicy)(nil)
