package iod

import (
	"context"
	"net"
	"testing"
	"time"

	"ndpcr/internal/faultinject"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
)

// TestDeleteErrorCounted verifies that a best-effort Delete which fails on
// the wire is counted instead of vanishing: the abort paths rely on Delete
// never changing control flow, so the leak metric is the only trace.
func TestDeleteErrorCounted(t *testing.T) {
	srv, dialled, _ := startServer(t)
	srv.SetConnFaultHook(func() (drop, corrupt bool) { return true, false }) // sever every exchange

	conn, err := net.Dial("tcp", dialled.Addr())
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(conn) // no redial: the failure surfaces immediately
	defer client.Close()
	reg := metrics.NewRegistry()
	client.Instrument(reg)

	deleteErrs := reg.Counter("ndpcr_iod_delete_errors_total", "")
	client.Delete(context.Background(), iostore.Key{Job: "j", Rank: 0, ID: 1})
	if got := deleteErrs.Value(); got != 1 {
		t.Errorf("delete errors = %d, want 1", got)
	}
}

func TestDeleteSuccessNotCounted(t *testing.T) {
	_, client, backing := startServer(t)
	reg := metrics.NewRegistry()
	client.Instrument(reg)
	if err := backing.Put(context.Background(), iostore.Object{
		Key: iostore.Key{Job: "j", Rank: 0, ID: 1}, Blocks: [][]byte{{1}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := client.Delete(context.Background(), iostore.Key{Job: "j", Rank: 0, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if ids, _ := backing.IDs(context.Background(), "j", 0); len(ids) != 0 {
		t.Errorf("object survived delete: %v", ids)
	}
	if got := reg.Counter("ndpcr_iod_delete_errors_total", "").Value(); got != 0 {
		t.Errorf("clean delete counted as error: %d", got)
	}
}

// TestConnDropHookRetried wires the faultinject iod.conn site end to end: a
// single injected connection drop mid-exchange must be absorbed by the
// client's reconnect+retry, not surface to the caller.
func TestConnDropHookRetried(t *testing.T) {
	srv, client, backing := startServer(t)
	in := faultinject.New(2017, faultinject.Rule{
		Site: faultinject.SiteIODConn, Rank: faultinject.AnyRank, Count: 1,
	})
	srv.SetConnFaultHook(in.ConnFaultHook())
	reg := metrics.NewRegistry()
	client.Instrument(reg)

	obj := iostore.Object{
		Key:      iostore.Key{Job: "j", Rank: 3, ID: 9},
		OrigSize: 4,
		Blocks:   [][]byte{{1, 2, 3, 4}},
	}
	start := time.Now()
	if err := client.Put(context.Background(), obj); err != nil {
		t.Fatalf("put across injected conn drop: %v", err)
	}
	t.Logf("put retried in %v", time.Since(start))
	if _, err := backing.Get(context.Background(), obj.Key); err != nil {
		t.Errorf("object missing after retried put: %v", err)
	}
	if got := reg.Counter("ndpcr_iod_reconnects_total", "").Value(); got < 1 {
		t.Errorf("reconnects = %d, want >= 1", got)
	}
	if fired := in.Fired()[faultinject.SiteIODConn]; fired != 1 {
		t.Errorf("iod.conn fired %d times, want 1", fired)
	}
}
