package faultinject

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

func TestParseSpec(t *testing.T) {
	in, err := Parse(1, "nvm.put,rank=1,after=2,count=3;store.get,p=0.5,mode=corrupt;iod.conn,mode=stall,delay=5ms")
	if err != nil {
		t.Fatal(err)
	}
	rules := in.rules
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(rules))
	}
	r := rules[0].Rule
	if r.Site != SiteNVMPut || r.Rank != 1 || r.After != 2 || r.Count != 3 || r.Mode != ModeErr {
		t.Errorf("rule 0 = %+v", r)
	}
	r = rules[1].Rule
	if r.Site != SiteStoreGet || r.Rank != AnyRank || r.Prob != 0.5 || r.Mode != ModeCorrupt {
		t.Errorf("rule 1 = %+v", r)
	}
	r = rules[2].Rule
	if r.Site != SiteIODConn || r.Mode != ModeStall || r.Delay != 5*time.Millisecond {
		t.Errorf("rule 2 = %+v", r)
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"",                       // empty schedule
		";",                      // still empty
		"bogus.site",             // unknown site
		"nvm.put,when=3",         // unknown key
		"nvm.put,rank",           // malformed field
		"nvm.put,rank=x",         // bad int
		"nvm.put,p=2",            // probability out of range
		"nvm.put,mode=explode",   // unknown mode
		"nvm.put,delay=5parsecs", // bad duration
	} {
		if _, err := Parse(1, spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
}

func TestOrdinalRules(t *testing.T) {
	in := New(1, Rule{Site: SiteNVMPut, Rank: AnyRank, After: 2, Count: 2})
	var fired []bool
	for i := 0; i < 6; i++ {
		_, ok := in.Decide(SiteNVMPut, 0)
		fired = append(fired, ok)
	}
	want := []bool{false, false, true, true, false, false}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("ops fired = %v, want %v", fired, want)
		}
	}
	if got := in.Fired()[SiteNVMPut]; got != 2 {
		t.Errorf("Fired = %d, want 2", got)
	}
}

func TestRankMatch(t *testing.T) {
	in := New(1, Rule{Site: SiteStoreGet, Rank: 2, Count: 1})
	if _, ok := in.Decide(SiteStoreGet, 0); ok {
		t.Error("fired for rank 0")
	}
	if _, ok := in.Decide(SiteStoreGet, 2); !ok {
		t.Error("did not fire for rank 2")
	}
	// Other ranks must not consume the matching rule's ordinal budget.
	in = New(1, Rule{Site: SiteStoreGet, Rank: 2, After: 1, Count: 1})
	in.Decide(SiteStoreGet, 0)
	in.Decide(SiteStoreGet, 0)
	if _, ok := in.Decide(SiteStoreGet, 2); ok {
		t.Error("rank-2 op 1 fired despite after=1")
	}
	if _, ok := in.Decide(SiteStoreGet, 2); !ok {
		t.Error("rank-2 op 2 did not fire")
	}
}

func TestProbabilityDeterminism(t *testing.T) {
	run := func() []bool {
		in := New(2017, Rule{Site: SiteStorePutBlock, Rank: AnyRank, Prob: 0.3})
		out := make([]bool, 100)
		for i := range out {
			_, out[i] = in.Decide(SiteStorePutBlock, 0)
		}
		return out
	}
	a, b := run(), run()
	any := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between identical runs", i)
		}
		any = any || a[i]
	}
	if !any {
		t.Error("p=0.3 never fired in 100 ops")
	}
	// A different seed must (overwhelmingly likely) give a different pattern.
	in := New(7, Rule{Site: SiteStorePutBlock, Rank: AnyRank, Prob: 0.3})
	same := true
	for i := range a {
		_, ok := in.Decide(SiteStorePutBlock, 0)
		same = same && ok == a[i]
	}
	if same {
		t.Error("seeds 2017 and 7 produced identical 100-op patterns")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if _, ok := in.Decide(SiteNVMPut, 0); ok {
		t.Error("nil injector fired")
	}
	if n := len(in.Fired()); n != 0 {
		t.Errorf("nil injector Fired len = %d", n)
	}
}

func TestErrIsWrapped(t *testing.T) {
	in := New(1, Rule{Site: SiteNVMPut, Rank: AnyRank})
	d, ok := in.Decide(SiteNVMPut, 3)
	if !ok || d.Err == nil {
		t.Fatalf("decision = %+v, %v", d, ok)
	}
	if !errors.Is(d.Err, ErrInjected) {
		t.Errorf("error %v does not wrap ErrInjected", d.Err)
	}
	if !strings.Contains(d.Err.Error(), "rank 3") {
		t.Errorf("error %v does not name the rank", d.Err)
	}
}

func TestNVMHook(t *testing.T) {
	in := New(1,
		Rule{Site: SiteNVMPut, Rank: 0, Count: 1},
		Rule{Site: SiteNVMGet, Rank: 0, Mode: ModeStall, Delay: time.Millisecond, Count: 1},
	)
	var slept time.Duration
	in.SetSleep(func(d time.Duration) { slept += d })

	dev, err := nvm.NewDevice(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	dev.SetFaultHook(in.NVMHook(0))
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: []byte("x")}); !errors.Is(err, ErrInjected) {
		t.Errorf("first put error = %v, want injected", err)
	}
	if err := dev.Put(nvm.Checkpoint{ID: 1, Data: []byte("x")}); err != nil {
		t.Errorf("second put: %v", err)
	}
	// The get rule stalls, then the read proceeds normally.
	if _, err := dev.Get(1); err != nil {
		t.Errorf("stalled get failed: %v", err)
	}
	if slept != time.Millisecond {
		t.Errorf("stall slept %v, want 1ms", slept)
	}
}

func TestConnDropHook(t *testing.T) {
	in := New(1, Rule{Site: SiteIODConn, Count: 2, Rank: AnyRank})
	hook := in.ConnFaultHook()
	for i := 0; i < 2; i++ {
		if drop, corrupt := hook(); !drop || corrupt {
			t.Errorf("firing %d of the conn-drop rule: drop %v, corrupt %v", i+1, drop, corrupt)
		}
	}
	if drop, corrupt := hook(); drop || corrupt {
		t.Error("conn-drop rule fired past its count")
	}
}

func testObject(blocks int) iostore.Object {
	o := iostore.Object{
		Key:  iostore.Key{Job: "j", Rank: 0, ID: 1},
		Meta: map[string]string{"step": "1"},
	}
	for i := 0; i < blocks; i++ {
		o.Blocks = append(o.Blocks, []byte{byte(i), byte(i), byte(i), byte(i)})
		o.OrigSize += 4
	}
	return o
}

func TestStoreWrapperErr(t *testing.T) {
	// A whole-object Put is its block writes: the first one meets the rule.
	in := New(1, Rule{Site: SiteStorePutBlock, Rank: AnyRank, Count: 1})
	s := WrapStore(iostore.New(nvm.Pacer{}), in)
	if err := s.Put(context.Background(), testObject(4)); !errors.Is(err, ErrInjected) {
		t.Fatalf("put error = %v", err)
	}
	if err := s.Put(context.Background(), testObject(4)); err != nil {
		t.Fatalf("second put: %v", err)
	}
	if _, err := s.Get(context.Background(), iostore.Key{Job: "j", Rank: 0, ID: 1}); err != nil {
		t.Errorf("get after clean put: %v", err)
	}
}

func TestStoreWrapperTornPut(t *testing.T) {
	// The third block write of a whole-object Put tears.
	in := New(1, Rule{Site: SiteStorePutBlock, Rank: AnyRank, Mode: ModeTorn, After: 2, Count: 1})
	inner := iostore.New(nvm.Pacer{})
	s := WrapStore(inner, in)
	if err := s.Put(context.Background(), testObject(4)); !errors.Is(err, ErrInjected) {
		t.Fatalf("torn put error = %v", err)
	}
	// The torn object is visible in the store with only a prefix of its
	// blocks, the last one cut short — exactly the damage an abort path must
	// clean up.
	obj, err := inner.Get(context.Background(), iostore.Key{Job: "j", Rank: 0, ID: 1})
	if err != nil {
		t.Fatalf("torn put left nothing behind: %v", err)
	}
	if len(obj.Blocks) != 3 || len(obj.Blocks[1]) != 4 || len(obj.Blocks[2]) != 2 {
		t.Errorf("torn object = %q; want 3 of 4 blocks, the last cut to 2 bytes", obj.Blocks)
	}
}

func TestStoreWrapperCorruptGet(t *testing.T) {
	in := New(1, Rule{Site: SiteStoreGet, Rank: AnyRank, Mode: ModeCorrupt, Count: 1})
	inner := iostore.New(nvm.Pacer{})
	s := WrapStore(inner, in)
	want := testObject(2)
	if err := s.Put(context.Background(), want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(context.Background(), want.Key)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for i := range got.Blocks {
		if string(got.Blocks[i]) != string(want.Blocks[i]) {
			diff = true
		}
	}
	if !diff {
		t.Error("corrupt get returned pristine data")
	}
	// The store's own copy must be untouched; only the returned copy is
	// damaged (silent read corruption, not store damage).
	clean, err := s.Get(context.Background(), want.Key)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Blocks {
		if string(clean.Blocks[i]) != string(want.Blocks[i]) {
			t.Error("corruption leaked into the stored object")
		}
	}
}

func TestStoreWrapperStall(t *testing.T) {
	in := New(1, Rule{Site: SiteStoreGet, Rank: AnyRank, Mode: ModeStall, Delay: 2 * time.Millisecond, Count: 1})
	var slept time.Duration
	in.SetSleep(func(d time.Duration) { slept += d })
	s := WrapStore(iostore.New(nvm.Pacer{}), in)
	if err := s.Put(context.Background(), testObject(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(context.Background(), iostore.Key{Job: "j", Rank: 0, ID: 1}); err != nil {
		t.Errorf("stalled get failed: %v", err)
	}
	if slept != 2*time.Millisecond {
		t.Errorf("stall slept %v", slept)
	}
}

func TestStoreWrapperPassThrough(t *testing.T) {
	// Metadata ops never inject, even with greedy any-site rules.
	in := New(1,
		Rule{Site: SiteStorePutBlock, Rank: AnyRank},
		Rule{Site: SiteStoreGet, Rank: AnyRank, After: 1},
	)
	inner := iostore.New(nvm.Pacer{})
	s := WrapStore(inner, in)
	if err := inner.Put(context.Background(), testObject(1)); err != nil {
		t.Fatal(err)
	}
	if ids, err := s.IDs(context.Background(), "j", 0); err != nil || len(ids) != 1 {
		t.Errorf("IDs = %v, %v", ids, err)
	}
	if _, ok, err := s.Latest(context.Background(), "j", 0); err != nil || !ok {
		t.Error("Latest missed")
	}
	if _, ok, err := s.Stat(context.Background(), iostore.Key{Job: "j", Rank: 0, ID: 1}); err != nil || !ok {
		t.Error("Stat missed")
	}
	s.Delete(context.Background(), iostore.Key{Job: "j", Rank: 0, ID: 1})
	if ids, _ := inner.IDs(context.Background(), "j", 0); len(ids) != 0 {
		t.Errorf("Delete did not pass through: %v", ids)
	}
}
