package gateway

import (
	"bytes"
	"context"
	"regexp"
	"slices"
	"strconv"
	"testing"
)

// TestProductSendsOnlyBlockOps drives every tenant request kind through two
// gateways over one live tier — three loopback iod servers behind a shard
// client with R = 2 — and reads the servers' request census: the wire has six
// ops, and a save, a durability poll, a listing, a load, a resume, a restore
// and a delete between them use the five that move or find blocks. A whole
// object never crosses the wire in one frame.
func TestProductSendsOnlyBlockOps(t *testing.T) {
	servers, addrs := liveTier(t)
	gatewayOverTier := func() *Client {
		_, ts := newTestServer(t, func(c *Config) {
			c.Store = dialTier(t, addrs)
			c.BlockSize = 4 << 10 // multi-block objects
		})
		return NewClient(ts.URL, "tok-acme")
	}
	ctx := context.Background()
	first := bytes.Repeat([]byte("first save "), 2<<10)
	second := bytes.Repeat([]byte("second save "), 2<<10)

	c := gatewayOverTier()
	id1, err := c.Save(ctx, "acme", "census", 0, 1, first)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c.SaveAsync(ctx, "acme", "census", 0, 2, second)
	if err != nil {
		t.Fatal(err)
	}
	if d, err := c.Durability(ctx, "acme", "census", 0, id2, "store"); err != nil || !d.Durable("store") {
		t.Fatalf("Durability(wait=store) = %+v, %v", d, err)
	}
	if ids, err := c.List(ctx, "acme", "census", 0); err != nil || len(ids) != 2 {
		t.Fatalf("List = %v, %v", ids, err)
	}
	for _, ranks := range []int{0, 1} {
		if ck, err := c.Resume(ctx, "acme", "census", 0, ranks); err != nil || !bytes.Equal(ck.Data, second) {
			t.Fatalf("Resume(ranks=%d) = %d bytes, %v", ranks, len(ck.Data), err)
		}
	}
	plan, err := c.PlanRestore(ctx, "acme", "census", 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ck, err := c.RestoreMember(ctx, "acme", "census", 1, 1, 0, plan.Line); err != nil || !bytes.Equal(ck.Data, second) {
		t.Fatalf("RestoreMember = %d bytes, %v", len(ck.Data), err)
	}

	// A restarted gateway: no session, a shard client that tracks nothing.
	c2 := gatewayOverTier()
	if d, err := c2.Durability(ctx, "acme", "census", 0, id1, ""); err != nil || !d.Durable("store") {
		t.Fatalf("cold Durability = %+v, %v", d, err)
	}
	if ck, err := c2.Load(ctx, "acme", "census", 0, id1); err != nil || !bytes.Equal(ck.Data, first) {
		t.Fatalf("Load after a restart = %d bytes, %v", len(ck.Data), err)
	}
	if err := c2.Delete(ctx, "acme", "census", 0, id1); err != nil {
		t.Fatal(err)
	}

	series := regexp.MustCompile(`(?m)^ndpcr_iod_requests_total\{op="([a-z_]+)"\} (\d+)$`)
	want := []string{"delete", "get_block", "ids", "keys", "put_block", "stat_blocks"}
	total := make(map[string]int)
	for i, srv := range servers {
		var buf bytes.Buffer
		if err := srv.Metrics().WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		var ops []string
		for _, m := range series.FindAllStringSubmatch(buf.String(), -1) {
			ops = append(ops, m[1])
			n, _ := strconv.Atoi(m[2])
			total[m[1]] += n
		}
		slices.Sort(ops)
		if !slices.Equal(ops, want) {
			t.Errorf("server %d counts requests by %v; want exactly %v", i, ops, want)
		}
	}
	for _, op := range []string{"put_block", "get_block", "stat_blocks", "ids", "delete"} {
		if total[op] == 0 {
			t.Errorf("no %s request reached the servers (census %v)", op, total)
		}
	}
}
