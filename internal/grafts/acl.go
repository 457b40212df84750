package grafts

import (
	"fmt"

	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// Graft-memory layout for the access-control-list graft.
const (
	// ACLCountAddr holds the number of ACL entries.
	ACLCountAddr = 0x1000
	// ACLBase is the entry array: {uid, fileid, perm bits}, 12 bytes each,
	// evaluated first-match-wins.
	ACLBase = 0x1010
	// ACLStride is the per-entry record size.
	ACLStride = 12
	// ACLMaxEntries bounds the table.
	ACLMaxEntries = 1024
	// ACLWildcard in the uid or fileid field matches anything.
	ACLWildcard = 0xFFFFFFFF
	// ACLMemSize sizes the graft memory.
	ACLMemSize = 1 << 16
)

// Permission bits.
const (
	PermRead  = 1
	PermWrite = 2
	PermExec  = 4
)

// ACL is §3.3's first Black Box example: "a small database that accepts a
// triple containing a file access request, a user ID, and a file ID, and
// responds yes or no." Entry:
//
//	check(uid, fileid, op) -> 0/1
//
// The table is scanned in order; the first entry whose uid and fileid
// match (either may be the wildcard) decides by testing op against its
// permission bits. No matching entry denies.
var ACL = tech.Source{
	Name: "acl",
	GEL: `
func check(uid, fileid, op) {
	var n = ld32(0x1000);
	var i = 0;
	while (i < n) {
		var base = 0x1010 + i * 12;
		var euid = ld32(base);
		var efile = ld32(base + 4);
		if ((euid == uid || euid == 0xFFFFFFFF) && (efile == fileid || efile == 0xFFFFFFFF)) {
			if (ld32(base + 8) & op) { return 1; }
			return 0;
		}
		i = i + 1;
	}
	return 0;
}
`,
	Tcl: `
proc check {uid fileid op} {
	set n [ld32 0x1000]
	set i 0
	while {$i < $n} {
		set base [expr {0x1010 + $i * 12}]
		set euid [ld32 $base]
		set efile [ld32 [expr {$base + 4}]]
		if {($euid == $uid || $euid == 0xFFFFFFFF) && ($efile == $fileid || $efile == 0xFFFFFFFF)} {
			if {[ld32 [expr {$base + 8}]] & $op} { return 1 }
			return 0
		}
		incr i
	}
	return 0
}
`,
	Compiled: newCompiledACL,
	Hipec: map[string]string{
		"check": `
	; r0 = uid, r1 = fileid, r2 = op
		movi r4, 0x1000
		ldw  r4, [r4+0]      ; entry count
		movi r5, 0           ; i
		movi r6, 0x1010      ; entry pointer
		movi r9, 0xFFFFFFFF  ; wildcard
	loop:
		jge  r5, r4, deny
		ldw  r7, [r6+0]      ; entry uid
		jeq  r7, r0, uidok
		jeq  r7, r9, uidok
		jmp  next
	uidok:
		ldw  r8, [r6+4]      ; entry fileid
		jeq  r8, r1, fileok
		jeq  r8, r9, fileok
		jmp  next
	fileok:
		ldw  r7, [r6+8]      ; perm bits; first match decides
		and  r7, r7, r2
		movi r8, 0
		jne  r7, r8, allow
		ret  r8
	allow:
		movi r7, 1
		ret  r7
	next:
		addi r5, r5, 1
		addi r6, r6, 12
		jmp  loop
	deny:
		movi r7, 0
		ret  r7
`,
	},
}

func newCompiledACL(cfg mem.Config, m *mem.Memory) (tech.Graft, error) {
	g := NewCompiledGraft(m)
	d := m.Data
	mask := m.Mask()
	var check func(uid, fileid, op uint32) uint32
	switch {
	case cfg.Policy == mem.PolicyChecked && cfg.NilCheck:
		check = func(u, f, o uint32) uint32 { return aclCheck(d, u, f, o, ld32nil) }
	case cfg.Policy == mem.PolicyChecked:
		check = func(u, f, o uint32) uint32 { return aclCheck(d, u, f, o, ld32chk) }
	case cfg.Policy == mem.PolicySandbox && cfg.ReadProtect:
		check = func(u, f, o uint32) uint32 {
			return aclCheck(d, u, f, o, func(d []byte, a uint32) uint32 { return ld32sfi(d, a, mask) })
		}
	default:
		check = func(u, f, o uint32) uint32 { return aclCheck(d, u, f, o, le32) }
	}
	g.Register("check", 3, func(a []uint32) uint32 { return check(a[0], a[1], a[2]) })
	return g, nil
}

func aclCheck(d []byte, uid, fileid, op uint32, ld func([]byte, uint32) uint32) uint32 {
	n := ld(d, ACLCountAddr)
	for i := uint32(0); i < n; i++ {
		base := uint32(ACLBase) + i*ACLStride
		euid := ld(d, base)
		efile := ld(d, base+4)
		if (euid == uid || euid == ACLWildcard) && (efile == fileid || efile == ACLWildcard) {
			if ld(d, base+8)&op != 0 {
				return 1
			}
			return 0
		}
	}
	return 0
}

// ACLEntry is one rule.
type ACLEntry struct {
	UID    uint32 // ACLWildcard matches any user
	FileID uint32 // ACLWildcard matches any file
	Perms  uint32 // PermRead | PermWrite | PermExec
}

// ACLTable manages the rule table in graft memory and offers the host-
// side reference implementation used as the correctness oracle.
type ACLTable struct {
	m       *mem.Memory
	entries []ACLEntry
	call    tech.Handle
	args    [3]uint32
}

// NewACLTable binds a table to a loaded acl graft.
func NewACLTable(g tech.Graft) (*ACLTable, error) {
	m := g.Memory()
	need := uint64(ACLBase) + ACLMaxEntries*ACLStride
	if uint64(m.Size()) < need {
		return nil, fmt.Errorf("grafts: acl needs %d bytes of graft memory, have %d", need, m.Size())
	}
	t := &ACLTable{m: m, call: tech.Resolve(g, "check")}
	t.Set(nil)
	return t, nil
}

// Set replaces the rules.
func (t *ACLTable) Set(entries []ACLEntry) {
	if len(entries) > ACLMaxEntries {
		panic(fmt.Sprintf("grafts: %d ACL entries exceed capacity %d", len(entries), ACLMaxEntries))
	}
	t.entries = append(t.entries[:0], entries...)
	t.m.St32U(ACLCountAddr, uint32(len(entries)))
	for i, e := range entries {
		base := uint32(ACLBase) + uint32(i)*ACLStride
		t.m.St32U(base, e.UID)
		t.m.St32U(base+4, e.FileID)
		t.m.St32U(base+8, e.Perms)
	}
}

// Check asks the graft.
func (t *ACLTable) Check(uid, fileid, op uint32) (bool, error) {
	t.args[0], t.args[1], t.args[2] = uid, fileid, op
	v, _, err := t.call(telemetry.SpanCtx{}, t.args[:])
	return v != 0, err
}

// ReferenceCheck is the host-side oracle with identical semantics.
func (t *ACLTable) ReferenceCheck(uid, fileid, op uint32) bool {
	for _, e := range t.entries {
		if (e.UID == uid || e.UID == ACLWildcard) && (e.FileID == fileid || e.FileID == ACLWildcard) {
			return e.Perms&op != 0
		}
	}
	return false
}
