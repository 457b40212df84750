package main

import (
	"crypto/md5"
	"fmt"
	"os"
	"time"

	"graftlab/internal/disk"
	"graftlab/internal/grafts"
	"graftlab/internal/kernel"
	"graftlab/internal/ld"
	"graftlab/internal/mem"
	"graftlab/internal/vclock"
	"graftlab/internal/workload"
)

// write-path: one request is a 64 KB file write, one logical-disk
// segment. The file is pushed through a stream chain carrying the MD5
// fingerprint graft, then written as 16 logical blocks through the ldmap
// graft, the 16th of which flushes the segment to the simulated disk. MD5
// is not expressible in the domain language, so this workload hosts no
// domain tenant.
const (
	writeFiles     = 16 // distinct seeded files the requests draw from
	writeBlockSize = 4096
	writeFileSize  = ld.SegmentBlocks * writeBlockSize
)

var writeClasses = []int{classC, classCodegen, classAOT, classBytecode, classUpcall}

type writePath struct {
	seed    uint64
	corrupt bool
	files   [][]byte
	sums    [][md5.Size]byte
	blocks  uint32 // logical disk capacity in blocks

	rng  *workload.RNG // files and blocks
	draw *rounds
	rec  *recorder
	ts   []*writeTenant

	// the drawn request
	file int
	lbs  [ld.SegmentBlocks]uint32
}

type writeTenant struct {
	class  int
	md5    *grafts.MD5Graft
	filter *grafts.MD5Filter
	chain  *kernel.Chain
	disk   *ld.LD
	mapMem *mem.Memory // the ldmap graft's memory, holding its map table
	native *ld.NativeMapper
	files  int // files written since set-up
}

func newWritePath(seed uint64, corrupt bool) (*writePath, error) {
	w := &writePath{seed: seed, corrupt: corrupt, blocks: disk.DefaultGeometry().Blocks}
	rng := workload.NewRNG(seed)
	for i := 0; i < writeFiles; i++ {
		f := make([]byte, writeFileSize)
		for j := 0; j < len(f); j += 8 {
			v := rng.Next()
			for k := 0; k < 8; k++ {
				f[j+k] = byte(v >> (8 * k))
			}
		}
		w.files = append(w.files, f)
		w.sums = append(w.sums, md5.Sum(f))
	}
	return w, nil
}

func (w *writePath) classes() []int { return writeClasses }

func (w *writePath) setup(st *stack) error {
	w.rec = st.rec
	w.rng = workload.NewRNG(w.seed ^ 0xbb67ae8584caa73b)
	w.draw = newRounds(len(writeClasses), w.seed^0xa54ff53a5f1d36f1)
	w.ts = nil
	for _, c := range writeClasses {
		name := allClasses[c].name
		_, g, err := st.host("write."+name+".md5", c, grafts.MD5, mem.New(grafts.MDMemSize))
		if err != nil {
			return err
		}
		h, err := grafts.NewMD5Graft(g)
		if err != nil {
			return err
		}
		f := grafts.NewMD5Filter(h)
		var filter kernel.Filter = f
		if st.rec != nil {
			filter = spanFilter{inner: f, r: st.rec}
		}
		mapMem := mem.New(grafts.LDMemSize)
		_, mg, err := st.host("write."+name+".ldmap", c, grafts.LDMap, mapMem)
		if err != nil {
			return err
		}
		gm, err := grafts.NewGraftMapper(mg, w.blocks)
		if err != nil {
			return err
		}
		var mapper ld.Mapper = gm
		if st.rec != nil {
			mapper = spanMapper{inner: gm, r: st.rec}
		}
		dev := disk.New(disk.DefaultGeometry(), &vclock.Clock{})
		w.ts = append(w.ts, &writeTenant{
			class:  c,
			md5:    h,
			filter: f,
			chain:  kernel.NewChain(nil, filter),
			disk:   ld.New(dev, mapper, false),
			mapMem: mapMem,
		})
	}
	return nil
}

func (w *writePath) prepare() {
	for _, wt := range w.ts {
		wt.native = ld.NewNativeMapper(w.blocks)
	}
}

func (w *writePath) pick() int {
	t := w.draw.pick()
	w.file = int(w.rng.Uint32n(writeFiles))
	for i := range w.lbs {
		w.lbs[i] = w.rng.Uint32n(w.blocks)
	}
	return t
}

func (w *writePath) serve(t int) error {
	wt := w.ts[t]
	wt.files++
	if w.rec != nil {
		return w.serveTraced(wt)
	}
	if err := wt.md5.Reset(); err != nil {
		return err
	}
	if _, err := wt.chain.Write(w.files[w.file]); err != nil {
		return err
	}
	if err := wt.chain.Close(); err != nil {
		return err
	}
	for _, lb := range w.lbs {
		if err := wt.disk.Write(lb); err != nil {
			return err
		}
	}
	return nil
}

func (w *writePath) serveTraced(wt *writeTenant) error {
	r := w.rec
	i := r.begin(layerMD5, -1)
	err := wt.md5.Reset()
	r.end(i)
	if err != nil {
		return err
	}
	i = r.begin(layerStream, -1)
	_, err = wt.chain.Write(w.files[w.file])
	if err == nil {
		err = wt.chain.Close()
	}
	r.end(i)
	if err != nil {
		return err
	}
	for _, lb := range w.lbs {
		i = r.begin(layerLD, -1)
		err = wt.disk.Write(lb)
		r.end(i)
		if err != nil {
			return err
		}
	}
	return nil
}

// check compares the file's fingerprint with crypto/md5 and feeds the
// request's blocks to the tenant's native reference mapper.
func (w *writePath) check(t int) bool {
	wt := w.ts[t]
	for _, lb := range w.lbs {
		if _, err := wt.native.MapWrite(lb); err != nil {
			return false
		}
	}
	d, ok := wt.filter.Digest()
	return ok && d == w.sums[w.file]
}

func (w *writePath) between(time.Duration, time.Duration) int64 { return 0 }

// finished also ends a run early, before any tenant's log could fill:
// the logical disk has no cleaner, as in the paper.
func (w *writePath) finished(pastDeadline bool) bool {
	if pastDeadline {
		return true
	}
	limit := int(w.blocks/ld.SegmentBlocks) - 1
	for _, wt := range w.ts {
		if wt.files >= limit {
			return true
		}
	}
	return false
}

// verify compares each tenant's final logical→physical map, as the graft
// stored it in its memory, with the native mapper fed the same blocks.
func (w *writePath) verify(served []int64) int64 {
	var wrong int64
	for t, wt := range w.ts {
		for lb := uint32(0); lb < w.blocks; lb++ {
			want, err := wt.native.MapRead(lb)
			if w.corrupt && t == 0 && lb == 0 {
				want ^= 1
			}
			if got := wt.mapMem.Ld32U(grafts.LDMapBase + 4*lb); err != nil || got != want {
				fmt.Fprintf(os.Stderr, "write-path oracle: tenant %s maps block %d to %d, native reference %d\n",
					allClasses[wt.class].name, lb, got, want)
				wrong += served[t]
				break
			}
		}
	}
	return wrong
}

func (w *writePath) layers(map[string]float64) {}
