package iod

import (
	"context"
	"net"
	"testing"
	"time"

	"ndpcr/internal/node/iostore"
	"ndpcr/internal/node/nvm"
)

// TestDialRetriesUntilServerUp starts the server only after Dial has been
// refused twice: the connect must survive the startup window instead of
// failing on the first refused attempt.
func TestDialRetriesUntilServerUp(t *testing.T) {
	// Reserve a port, then free it so the first dial attempts are refused.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	srv, err := NewServer(iostore.New(nvm.Pacer{}))
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	// Come up mid-way through the client's backoff schedule: its dial
	// starts the server once the second attempt has been refused.
	c := newClient(addr, 1)
	dial, refused := c.dial, 0
	c.dial = func(ctx context.Context) (net.Conn, error) {
		conn, err := dial(ctx)
		if err != nil {
			if refused++; refused == 2 {
				ln, lerr := net.Listen("tcp", addr)
				if lerr != nil {
					t.Fatal(lerr)
				}
				go func() { serveErr <- srv.Serve(ln) }()
			}
		}
		return conn, err
	}
	client, err := c.connect()
	if err != nil {
		t.Fatalf("Dial did not survive server startup: %v", err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})

	// Round-trip sanity on the retried connection.
	obj := iostore.Object{
		Key:      iostore.Key{Job: "j", Rank: 0, ID: 1},
		OrigSize: 3,
		Blocks:   [][]byte{{1, 2, 3}},
	}
	if err := client.Put(context.Background(), obj); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get(context.Background(), obj.Key); err != nil {
		t.Fatal(err)
	}
}

// TestDialFailsAfterAttemptsExhausted: with nothing ever listening, Dial
// must give up with an error rather than loop forever.
func TestDialFailsAfterAttemptsExhausted(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	start := time.Now()
	if _, err := Dial(addr); err == nil {
		t.Fatal("Dial succeeded with no server")
	}
	// 5 backoffs: 25+50+100+200+400 ms ≈ 775 ms; generous upper bound.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Dial took %v to give up", elapsed)
	}
}
