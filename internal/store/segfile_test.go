package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildTestSegment makes an eager segment with a spread of v4 IPs, two
// engine IDs and a non-SNMP evidence sample.
func buildTestSegment(n int) *segment {
	idA := engID(9, 1, 2, 3, 4)
	idB := engID(2636, 9, 9, 9, 9)
	var samples []Sample
	for i := 0; i < n; i++ {
		id := idA
		if i%3 == 0 {
			id = idB
		}
		o := mkObs(fmt.Sprintf("10.5.%d.%d", i/200, i%200), id, 2, int64(100+i), t0)
		samples = append(samples, sampleFrom(o, uint64(1+i%2), uint64(i+1)))
	}
	// One non-SNMP evidence sample: excluded from engine index and flags.
	o := mkObs("10.5.250.1", []byte("key-bytes"), 0, 0, t0)
	ev := sampleFrom(o, 2, uint64(n+1))
	ev.Protocol = "icmp-ts"
	samples = append(samples, ev)
	return buildSegment(samples)
}

// writeAndOpen round-trips a segment through the v3 file format.
func writeAndOpen(t *testing.T, g *segment, withBloom, verify bool, st *segStats) *segment {
	t.Helper()
	dir := t.TempDir()
	d := &disk{dir: dir}
	if err := d.writeSegmentFile("000001.seg", g, withBloom); err != nil {
		t.Fatal(err)
	}
	lz, err := openSegment(dir, "000001.seg", st, verify)
	if err != nil {
		t.Fatal(err)
	}
	return lz
}

// TestSegmentV3RoundTrip: every accessor of the lazy segment answers
// exactly like the eager one it was written from.
func TestSegmentV3RoundTrip(t *testing.T) {
	for _, verify := range []bool{false, true} {
		g := buildTestSegment(300)
		lz := writeAndOpen(t, g, true, verify, nil)
		if lz.lz == nil {
			t.Fatal("v3 open produced an eager segment")
		}
		if lz.length() != g.length() {
			t.Fatalf("length %d, want %d", lz.length(), g.length())
		}
		var eager, lazy []Sample
		g.mustScan(func(sm *Sample) { eager = append(eager, *sm) })
		lz.mustScan(func(sm *Sample) { lazy = append(lazy, *sm) })
		if mustJSON(t, lazy) != mustJSON(t, eager) {
			t.Fatal("scan order or contents diverge")
		}
		for ip := range g.byIP {
			if mustJSON(t, lz.ipSamples(ip)) != mustJSON(t, g.ipSamples(ip)) {
				t.Fatalf("ipSamples(%s) diverges", ip)
			}
		}
		for id := range g.engines {
			if mustJSON(t, lz.engineIPs([]byte(id))) != mustJSON(t, g.engineIPs([]byte(id))) {
				t.Fatalf("engineIPs(%x) diverges", id)
			}
		}
		// The evidence sample's protocol key must not answer engine lookups.
		if got := lz.engineIPs([]byte("key-bytes")); got != nil {
			t.Fatalf("evidence alias key leaked into engine index: %v", got)
		}
	}
}

// TestSegmentBloomScreensNegatives is the cold-negative-lookup contract:
// with the filter, a miss touches zero segment bytes; without it, every
// miss pays an index probe.
func TestSegmentBloomScreensNegatives(t *testing.T) {
	st := &segStats{}
	g := buildTestSegment(300)
	lz := writeAndOpen(t, g, true, false, st)

	misses := 0
	for i := 0; i < 1000; i++ {
		addr := mkObs(fmt.Sprintf("172.16.%d.%d", i/250, i%250), nil, 0, 0, t0).IP
		if lz.ipSamples(addr) != nil {
			t.Fatalf("phantom samples for %s", addr)
		}
		misses++
	}
	bloomBytes := st.queryBytes.Load()

	st2 := &segStats{}
	noBloom := writeAndOpen(t, g, false, false, st2)
	for i := 0; i < 1000; i++ {
		addr := mkObs(fmt.Sprintf("172.16.%d.%d", i/250, i%250), nil, 0, 0, t0).IP
		if noBloom.ipSamples(addr) != nil {
			t.Fatalf("phantom samples for %s", addr)
		}
	}
	noBloomBytes := st2.queryBytes.Load()

	if noBloomBytes == 0 {
		t.Fatal("no-bloom misses touched zero bytes; accounting broken")
	}
	// The acceptance bar is ≥5x; with a ~0.1% FPR the filtered path
	// typically touches nothing at all.
	if bloomBytes*5 > noBloomBytes {
		t.Fatalf("bloom path read %d bytes over %d misses vs %d without; want ≥5x reduction",
			bloomBytes, misses, noBloomBytes)
	}
}

// TestSegmentV3CorruptionDetection: flipped bytes in the index or bloom
// blocks fail open immediately; a flipped sample byte passes a lazy open
// but fails the verify pass.
func TestSegmentV3CorruptionDetection(t *testing.T) {
	dir := t.TempDir()
	d := &disk{dir: dir}
	g := buildTestSegment(100)
	if err := d.writeSegmentFile("000001.seg", g, true); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "000001.seg")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A flipped byte mid-sample-block: lazy open fine, verify catches it.
	data := append([]byte(nil), pristine...)
	data[len(data)/8] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSegment(dir, "000001.seg", nil, false); err != nil {
		t.Fatalf("lazy open should defer sample checksums, got %v", err)
	}
	if _, err := openSegment(dir, "000001.seg", nil, true); err == nil {
		t.Fatal("verify open missed sample-block corruption")
	}

	// A flipped byte near the tail (inside index/bloom/footer): caught by
	// every open.
	data = append([]byte(nil), pristine...)
	data[len(data)-segFooterSize-10] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSegment(dir, "000001.seg", nil, false); err == nil {
		t.Fatal("lazy open missed tail-block corruption")
	}
}

// TestSegmentRejectsOtherVersions: v3 is the only segment format. A footer
// naming any other version fails the open with the unsupported-version
// error and leaves no mapping of the file behind.
func TestSegmentRejectsOtherVersions(t *testing.T) {
	dir := t.TempDir()
	d := &disk{dir: dir}
	if err := d.writeSegmentFile("000001.seg", buildTestSegment(50), true); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "000001.seg")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{1, 2, 4} {
		data := append([]byte(nil), pristine...)
		binary.LittleEndian.PutUint32(data[len(data)-8:], v)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := openSegment(dir, "000001.seg", nil, false)
		if want := fmt.Sprintf("unsupported version %d", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d: open = %v, want %q", v, err, want)
		}
		if maps, err := os.ReadFile("/proc/self/maps"); err == nil && bytes.Contains(maps, []byte(path)) {
			t.Errorf("version %d: the rejected file is still mapped", v)
		}
	}
}

// TestMergeSegmentsFileDigest pins the bytes of a merged segment file: an
// eager and a lazy input, a third that supersedes a hundred of their samples,
// non-SNMP evidence riding along. Compaction may change how it gathers and
// sorts; what it writes may not.
func TestMergeSegmentsFileDigest(t *testing.T) {
	var newer []Sample
	for i := 0; i < 100; i++ {
		o := mkObs(fmt.Sprintf("10.5.%d.%d", i/200, i%200), engID(9, 7, 7, 7, 7), 3, int64(5000+i), t0.Add(time.Hour))
		newer = append(newer, sampleFrom(o, uint64(1+i%2), uint64(1000+i)))
	}
	inputs := []*segment{
		buildTestSegment(300),
		writeAndOpen(t, buildTestSegment(450), true, false, nil),
		buildSegment(newer),
	}
	merged, dropped, err := mergeSegments(inputs)
	if err != nil {
		t.Fatal(err)
	}
	// 301 of the lazy input's samples repeat the eager input's verbatim.
	if dropped != 401 || merged.length() != 451 {
		t.Fatalf("merge kept %d and dropped %d, want 451 and 401", merged.length(), dropped)
	}
	if got := merged.ipSamples(newer[0].IP); len(got) != 1 || got[0].Seq != 1000 {
		t.Fatalf("superseded sample survived: %+v", got)
	}
	dir := t.TempDir()
	if err := (&disk{dir: dir}).writeSegmentFile("000009.seg", merged, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "000009.seg"))
	if err != nil {
		t.Fatal(err)
	}
	const want = "706ce7c27eae82c18b8c0ae0890e474a92e2b05bbd788960d9a78bd3014e759a"
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != want {
		t.Fatalf("merged segment file digest %s, want %s", got, want)
	}
}
