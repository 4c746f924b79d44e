package iod

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"ndpcr/internal/faultinject"
	"ndpcr/internal/iod/wire"
	"ndpcr/internal/metrics"
	"ndpcr/internal/node/iostore"
)

// TestServerClosesNonWirePeer is the first-contact rule, server side: a
// peer whose first bytes are not a wire frame — a stream from the retired
// gob codec, garbage, or a frame header of another protocol version — gets
// the socket closed with no reply, and the server keeps serving its other
// lanes.
func TestServerClosesNonWirePeer(t *testing.T) {
	_, client, _ := startPool(t, 1)
	otherVersion := make([]byte, wire.HeaderSize)
	wire.EncodeHeader(otherVersion, wire.Header{Magic: wire.Magic, Version: wire.Version + 1, Op: uint8(opIDs)})
	// How a stream from the retired gob codec opens: a length-prefixed type
	// definition, padded here so the server has a whole header to judge.
	gobStream := append([]byte("\x2d\xff\x81\x03\x01\x01\x07request\x01\xff\x82\x00\x01\x07\x01\x02Op\x01\x06\x00\x01\x03Key"),
		make([]byte, wire.HeaderSize)...)
	for name, first := range map[string][]byte{
		"gob stream":    gobStream,
		"garbage":       bytes.Repeat([]byte{0xA5}, 4*wire.HeaderSize),
		"other version": otherVersion,
	} {
		raw, err := net.Dial("tcp", client.Addr())
		if err != nil {
			t.Fatal(err)
		}
		raw.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := raw.Write(first); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		// EOF or a reset both mean closed (the server may close with unread
		// bytes still queued); only the read deadline means it did not.
		reply, err := io.ReadAll(raw)
		var ne net.Error
		if len(reply) != 0 || (errors.As(err, &ne) && ne.Timeout()) {
			t.Errorf("%s: server answered %d bytes or kept the socket open (err %v), want a silent close", name, len(reply), err)
		}
		raw.Close()
		if _, _, err := client.Latest(context.Background(), "contact", 0); err != nil {
			t.Fatalf("%s: healthy lane broken by a rejected peer: %v", name, err)
		}
	}
}

// TestClientRejectsNonWirePeer is the first-contact rule, client side: a
// listener that answers with anything but a wire frame fails the call with
// wire.ErrBadMagic once the retry budget is spent — it neither hangs nor
// retries forever.
func TestClientRejectsNonWirePeer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				// Read the request header, answer in another tongue.
				if _, err := io.ReadFull(conn, make([]byte, wire.HeaderSize)); err != nil {
					return
				}
				reply := make([]byte, 2*wire.HeaderSize)
				binary.LittleEndian.PutUint32(reply, 0xdeadbeef)
				conn.Write(reply)
			}(conn)
		}
	}()
	client, err := DialPool(l.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	reg := metrics.NewRegistry()
	client.Instrument(reg)

	done := make(chan error, 1)
	go func() {
		_, _, err := client.Latest(context.Background(), "contact", 0)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, wire.ErrBadMagic) {
			t.Fatalf("call against a non-wire peer: %v, want wire.ErrBadMagic", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("call against a non-wire peer never returned")
	}
	if got := client.mRetries.Value(); got != callAttempts {
		t.Errorf("retries = %v, want the full budget of %d", got, callAttempts)
	}
}

// TestCorruptFaultTripsChecksumAndRecovers injects one corrupt fault on
// the server's response path: the client's CRC check must catch it, count
// it, and the retry cycle must complete the call against the repaired
// lane.
func TestCorruptFaultTripsChecksumAndRecovers(t *testing.T) {
	srv, client, backing := startPool(t, 1)
	reg := metrics.NewRegistry()
	client.Instrument(reg)
	in := faultinject.New(1, faultinject.Rule{
		Site: faultinject.SiteIODConn, Rank: faultinject.AnyRank,
		Count: 1, Mode: faultinject.ModeCorrupt,
	})
	srv.SetConnFaultHook(in.ConnFaultHook())

	key := iostore.Key{Job: "crc", Rank: 0, ID: 1}
	if err := client.PutBlock(context.Background(), key, iostore.Object{Key: key, OrigSize: 4}, 0, []byte("data")); err != nil {
		t.Fatalf("PutBlock through corruption: %v", err)
	}
	if got := client.mChecksumErrs.Value(); got != 1 {
		t.Errorf("client checksum errors = %v, want 1", got)
	}
	if fired := in.Fired()[faultinject.SiteIODConn]; fired != 1 {
		t.Errorf("corrupt rule fired %d times, want 1", fired)
	}
	if obj, err := backing.Get(context.Background(), key); err != nil || string(obj.Blocks[0]) != "data" {
		t.Errorf("stored object wrong after recovery: %v, %v", obj, err)
	}
}

// TestServerRejectsCorruptRequestFrame corrupts a client->server frame:
// the server must answer with the checksum error (stream aligned, counted,
// under request ID 0) and the client must treat it as a transport failure
// of the lane and retry to success.
func TestServerRejectsCorruptRequestFrame(t *testing.T) {
	srv, client, backing := startPool(t, 1)
	reg := metrics.NewRegistry()
	client.Instrument(reg)
	client.mu.Lock()
	lk := client.lanes[0].link
	client.mu.Unlock()
	lk.wmu.Lock()
	lk.wc.CorruptNext = true
	lk.wmu.Unlock()

	key := iostore.Key{Job: "crc", Rank: 0, ID: 2}
	if err := client.PutBlock(context.Background(), key, iostore.Object{Key: key, OrigSize: 4}, 0, []byte("data")); err != nil {
		t.Fatalf("PutBlock through request corruption: %v", err)
	}
	if got := client.mChecksumErrs.Value(); got != 1 {
		t.Errorf("client checksum errors = %v, want 1", got)
	}
	eventually(t, "server counted the checksum failure", func() bool { return srv.mChecksumErrs.Value() > 0 })
	if obj, err := backing.Get(context.Background(), key); err != nil || string(obj.Blocks[0]) != "data" {
		t.Errorf("stored object wrong after recovery: %v, %v", obj, err)
	}
}
