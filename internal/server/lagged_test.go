package server

import (
	"net"
	"testing"
	"time"

	"tendax/internal/protocol"
	"tendax/internal/util"
)

// TestLaggedSubscriberGetsFinalPush forces a subscriber so far behind that
// the awareness bus cuts its subscription, then verifies the server (a)
// pushes one final "lagged" event so the client knows it must resync, and
// (b) actually forgets the dead subscription, so a resubscribe on the same
// connection delivers events again. Before the fix the push pump exited
// silently and a resubscribe was swallowed as a duplicate — the replica
// froze forever.
func TestLaggedSubscriberGetsFinalPush(t *testing.T) {
	addr, eng := harness(t, false)
	host := login(t, addr, "host", "")
	docID, err := host.CreateDocument("laggy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := host.Open(docID); err != nil {
		t.Fatal(err)
	}

	// A raw connection whose socket we deliberately stop reading, so
	// pushed events pile up. (A tiny receive buffer is not needed to fall
	// behind the flood, and it would make the backlog drain in ~200 ms
	// zero-window-probe steps, past the read deadline.)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	codec := protocol.NewCodec(nc)
	call := func(id int64, req *protocol.Message) *protocol.Message {
		t.Helper()
		req.Type = protocol.TypeRequest
		req.ID = id
		if err := codec.Send(req); err != nil {
			t.Fatal(err)
		}
		for {
			m, err := codec.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if m.Type == protocol.TypeResponse && m.ID == id {
				if m.Err != "" {
					t.Fatalf("request %d failed: %s", id, m.Err)
				}
				return m
			}
		}
	}
	call(1, &protocol.Message{Op: protocol.OpLogin, User: "sloth"})
	call(2, &protocol.Message{Op: protocol.OpSubscribe, Doc: docID})

	// Flood the document's bus without reading the socket: the pump falls
	// behind, the subscription's queue overflows and sheds, and the pump
	// owes us a lagged push.
	doc := util.ID(docID)
	now := eng.Clock().Now()
	for i := 0; i < 30000; i++ {
		eng.Bus().MoveCursor(doc, "flood", i, now)
	}

	// Drain until the lagged notice arrives.
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	sawLagged := false
	for !sawLagged {
		m, err := codec.Recv()
		if err != nil {
			t.Fatalf("connection died before the lagged push: %v", err)
		}
		if m.Type == protocol.TypePush && m.Event != nil && m.Event.Kind == protocol.EvLagged {
			sawLagged = true
			if m.Event.Doc != docID {
				t.Fatalf("lagged push for doc %d, want %d", m.Event.Doc, docID)
			}
		}
	}

	// The dead subscription must be gone server-side: resubscribing on the
	// same connection works and events flow again. The pump may still be
	// draining the flood, and a marker published while its queue is full
	// is shed into another lagged push, so markers repeat until one lands.
	call(3, &protocol.Message{Op: protocol.OpSubscribe, Doc: docID})
	stop := make(chan struct{})
	done := make(chan struct{})
	defer func() { close(stop); <-done }()
	go func() {
		defer close(done)
		for pos := 424242; ; pos++ {
			eng.Bus().MoveCursor(doc, "flood", pos, now)
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}()
	for {
		m, err := codec.Recv()
		if err != nil {
			t.Fatalf("no events after resubscribe: %v", err)
		}
		if m.Type == protocol.TypePush && m.Event != nil &&
			m.Event.Kind == "cursor" && m.Event.Pos >= 424242 {
			return
		}
	}
}
