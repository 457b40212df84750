package grafts

import (
	"testing"

	"graftlab/internal/mem"
	"graftlab/internal/netsim"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

var pfTechs = []tech.ID{
	tech.CompiledUnsafe, tech.CompiledSafe, tech.CompiledSafeNil,
	tech.CompiledSFI, tech.CompiledSFIFull,
	tech.NativeUnsafe, tech.NativeSafe, tech.SFI, tech.Bytecode, tech.Script,
	tech.Domain,
}

func TestPacketFilterMatchesReferenceOnTrace(t *testing.T) {
	const port = 5001
	trace, err := netsim.GenerateTrace(netsim.TraceConfig{
		Packets: 500, MatchPort: port, MatchFrac: 0.2, PayloadLen: 32, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := ReferencePacketFilter(port)

	for _, id := range pfTechs {
		id := id
		t.Run(string(id), func(t *testing.T) {
			n := len(trace)
			if id == tech.Script {
				n = 100
			}
			m := mem.New(PFMemSize)
			g, err := tech.Load(id, PacketFilter, m, tech.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ConfigurePacketFilter(m, port)
			call := tech.Resolve(g, "filter")
			args := make([]uint32, 1)
			for i, p := range trace[:n] {
				m.WriteAt(PFBufAddr, p)
				args[0] = uint32(len(p))
				v, _, err := call(telemetry.SpanCtx{}, args)
				if err != nil {
					t.Fatalf("packet %d: %v", i, err)
				}
				if (v != 0) != ref(p) {
					t.Fatalf("packet %d: graft=%d reference=%v (port %d, proto %d)",
						i, v, ref(p), p.DstPort(), p[netsim.OffIPProto])
				}
			}
		})
	}
}

func TestPacketFilterRejectsShortFrames(t *testing.T) {
	m := mem.New(PFMemSize)
	g, err := tech.Load(tech.CompiledUnsafe, PacketFilter, m, tech.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ConfigurePacketFilter(m, 80)
	v, err := g.Invoke("filter", 10)
	if err != nil || v != 0 {
		t.Fatalf("short frame: %d, %v", v, err)
	}
}

func TestDemuxWithGraftEndpoints(t *testing.T) {
	trace, err := netsim.GenerateTrace(netsim.DefaultTrace(400))
	if err != nil {
		t.Fatal(err)
	}
	d := netsim.NewDemux()

	// Endpoint A: graft under the bytecode class, port 5001.
	mA := mem.New(PFMemSize)
	gA, err := tech.Load(tech.Bytecode, PacketFilter, mA, tech.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ConfigurePacketFilter(mA, 5001)
	epA, err := d.Register("udp:5001", gA, "filter", PFBufAddr)
	if err != nil {
		t.Fatal(err)
	}
	// Endpoint B: host reference claiming all remaining UDP.
	epB := d.RegisterFunc("udp:any", func(p netsim.Packet) bool { return p.IsUDPv4() })

	var wantA, wantB uint64
	ref := ReferencePacketFilter(5001)
	for _, p := range trace {
		ep, err := d.Deliver(p)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case ref(p):
			wantA++
			if ep != epA {
				t.Fatalf("port-5001 frame went to %v", ep)
			}
		case p.IsUDPv4():
			wantB++
			if ep != epB {
				t.Fatalf("udp frame went to %v", ep)
			}
		default:
			if ep != nil {
				t.Fatalf("non-udp frame claimed by %s", ep.Name)
			}
		}
	}
	if epA.Matched != wantA || epB.Matched != wantB {
		t.Fatalf("matched A=%d (want %d) B=%d (want %d)", epA.Matched, wantA, epB.Matched, wantB)
	}
	st := d.Stats()
	if st.Frames != 400 || st.Delivered != wantA+wantB {
		t.Fatalf("stats %+v", st)
	}
	if st.Unclaimed != 400-wantA-wantB {
		t.Fatalf("unclaimed %d", st.Unclaimed)
	}
}

func TestDemuxSurvivesTrappingFilter(t *testing.T) {
	d := netsim.NewDemux()
	m := mem.New(PFMemSize)
	// A filter that always reads out of bounds under the checked policy.
	bad, err := tech.Load(tech.NativeSafe, tech.Source{
		Name: "bad", GEL: `func filter(len) { return ld32(0x40000000); }`,
	}, m, tech.Options{})
	if err != nil {
		t.Fatal(err)
	}
	epBad, err := d.Register("bad", bad, "filter", PFBufAddr)
	if err != nil {
		t.Fatal(err)
	}
	epAll := d.RegisterFunc("all", func(netsim.Packet) bool { return true })

	p := netsim.Build(netsim.Header{EthType: netsim.EthTypeIPv4, Proto: netsim.ProtoUDP, DstPort: 9}, 0)
	ep, err := d.Deliver(p)
	if err != nil {
		t.Fatal(err)
	}
	if ep != epAll {
		t.Fatalf("frame went to %v", ep)
	}
	if epBad.Errors != 1 {
		t.Fatalf("bad filter errors = %d", epBad.Errors)
	}
}

func TestDemuxRegisterValidation(t *testing.T) {
	d := netsim.NewDemux()
	m := mem.New(PFMemSize)
	g, err := tech.Load(tech.CompiledUnsafe, PacketFilter, m, tech.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Register("x", g, "filter", PFMemSize+8); err == nil {
		t.Fatal("buffer beyond memory accepted")
	}
}
