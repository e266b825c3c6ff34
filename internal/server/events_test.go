package server

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"permine/internal/core"
	"permine/internal/corpus"
	"permine/internal/corpus/corpustest"
)

func TestBroadcasterDropsSlowSubscriber(t *testing.T) {
	corpustest.CheckLeaks(t)
	b := NewBroadcaster()
	sub := b.Subscribe("j-1")
	other := b.Subscribe("j-1")

	// Fill the lagging subscriber's buffer and one more: the overflowing
	// publish must drop it without ever blocking.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= subscriberBuffer+1; i++ {
			b.Publish(Event{Type: "level", Job: "j-1", Seq: i})
			// Keep the healthy subscriber drained so only sub lags.
			<-other.C
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Publish blocked on a slow subscriber")
	}

	// The lagging subscriber got the buffered prefix, then a closed channel.
	for i := 1; i <= subscriberBuffer; i++ {
		ev, ok := <-sub.C
		if !ok {
			t.Fatalf("channel closed after %d events, want %d buffered", i-1, subscriberBuffer)
		}
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
	if _, ok := <-sub.C; ok {
		t.Error("slow subscriber channel not closed after overflow")
	}
	st := b.Stats()
	if st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}
	if st.Subscribers != 1 {
		t.Errorf("Subscribers = %d, want 1 (the healthy one)", st.Subscribers)
	}
}

func TestBroadcasterEndJob(t *testing.T) {
	corpustest.CheckLeaks(t)
	b := NewBroadcaster()
	sub := b.Subscribe("j-1")
	unrelated := b.Subscribe("j-2")

	b.Publish(Event{Type: "level", Job: "j-1", Seq: 1})
	b.EndJob(Event{Type: "end", Job: "j-1", Seq: 1})

	if ev := <-sub.C; ev.Type != "level" || ev.Seq != 1 {
		t.Fatalf("first event = %+v", ev)
	}
	if ev := <-sub.C; ev.Type != "end" {
		t.Fatalf("second event = %+v, want end", ev)
	}
	if _, ok := <-sub.C; ok {
		t.Error("subscriber channel not closed after end event")
	}
	select {
	case ev := <-unrelated.C:
		t.Errorf("unrelated job's subscriber got %+v", ev)
	default:
	}
	unrelated.Close()
	if n := b.Stats().Subscribers; n != 0 {
		t.Errorf("Subscribers = %d after EndJob and Close, want 0", n)
	}
}

func TestBroadcasterCloseAndLateSubscribe(t *testing.T) {
	corpustest.CheckLeaks(t)
	b := NewBroadcaster()
	sub := b.Subscribe("j-1")
	b.Close()
	if ev, ok := <-sub.C; !ok || ev.Type != "shutdown" || ev.Job != "j-1" {
		t.Errorf("first event after Close = %+v (ok=%v), want shutdown event", ev, ok)
	}
	if _, ok := <-sub.C; ok {
		t.Error("subscriber channel not closed by Close")
	}
	late := b.Subscribe("j-1")
	if _, ok := <-late.C; ok {
		t.Error("Subscribe after Close returned an open channel")
	}
	b.Publish(Event{Job: "j-1"}) // must not panic
	var nilB *Broadcaster
	nilB.Publish(Event{})
	nilB.EndJob(Event{})
	nilB.Close()
	if s := nilB.Subscribe("x"); s == nil {
		t.Error("nil broadcaster Subscribe returned nil")
	}
	_ = nilB.Stats()
}

// TestBroadcasterConcurrentChurn hammers publish, subscribe, close and
// drop paths together; run under -race it proves the single-lock design.
func TestBroadcasterConcurrentChurn(t *testing.T) {
	corpustest.CheckLeaks(t)
	b := NewBroadcaster()
	jobs := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for _, job := range jobs {
		wg.Add(1)
		go func(job string) {
			defer wg.Done()
			for i := 1; i <= 500; i++ {
				b.Publish(Event{Type: "level", Job: job, Seq: i})
			}
			b.EndJob(Event{Type: "end", Job: job, Seq: 501})
		}(job)
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				sub := b.Subscribe(jobs[i%len(jobs)])
				if i%2 == 0 {
					// Read at most one event; a subscription created
					// after the job ended never receives anything, so
					// never block past the test's stop signal.
					select {
					case <-sub.C:
					case <-stop:
					}
				}
				sub.Close()
			}
		}(i)
	}
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	time.Sleep(20 * time.Millisecond)
	close(stop)
	select {
	case <-wgDone:
	case <-time.After(30 * time.Second):
		t.Fatal("broadcaster churn deadlocked")
	}
}

// sseEvent is one parsed text/event-stream frame.
type sseEvent struct {
	name string
	ev   Event
}

// readSSE parses frames from a live SSE body until it closes, sending
// each on the returned channel (closed at EOF).
func readSSE(t *testing.T, body io.Reader) <-chan sseEvent {
	t.Helper()
	out := make(chan sseEvent, 256)
	go func() {
		defer close(out)
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var name, data string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = strings.TrimPrefix(line, "data: ")
			case line == "" && data != "":
				var ev Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Errorf("bad SSE data %q: %v", data, err)
					return
				}
				out <- sseEvent{name: name, ev: ev}
				name, data = "", ""
			}
		}
	}()
	return out
}

// openSSE connects to the job's event stream and returns the response
// (status already asserted) whose body streams events.
func openSSE(t *testing.T, base, id string) *http.Response {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("events status = %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	return resp
}

// TestSSELiveStream holds the miner after its first level so a client can
// attach mid-job, then releases it and asserts the client sees the replayed
// level, every live level exactly once (sequence strictly increasing), and
// a final end event followed by EOF.
func TestSSELiveStream(t *testing.T) {
	corpustest.CheckLeaks(t)
	srv, ts := newTestServer(t, Config{Workers: 1})
	levelHit := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.Manager().OnLevel = func(*corpus.Job, core.LevelMetrics) {
		once.Do(func() {
			close(levelHit)
			<-release
		})
	}

	resp := postJSON(t, ts.URL+"/v1/jobs", jobBody(t, "mpp", genomeSeq(t, 400, 7).Data()))
	sub := decode(t, resp.Body)
	resp.Body.Close()
	id := sub["id"].(string)

	select {
	case <-levelHit:
	case <-time.After(30 * time.Second):
		t.Fatal("first level never reported")
	}

	stream := openSSE(t, ts.URL, id)
	defer stream.Body.Close()
	events := readSSE(t, stream.Body)

	// The first frame is the replay of the already-completed level 1; it
	// must arrive while the miner is still blocked (replay is served from
	// the snapshot, not the live feed).
	select {
	case first := <-events:
		if first.name != "level" || first.ev.Seq != 1 {
			t.Fatalf("first frame = %q seq %d, want level seq 1", first.name, first.ev.Seq)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("replay of completed levels did not arrive while job blocked")
	}
	close(release)

	var levels []int
	sawEnd := false
	for fr := range events {
		switch fr.name {
		case "level":
			levels = append(levels, fr.ev.Seq)
		case "end":
			sawEnd = true
			var view JobView
			raw, _ := json.Marshal(fr.ev.Data)
			if err := json.Unmarshal(raw, &view); err != nil {
				t.Fatalf("end payload: %v", err)
			}
			if view.State != corpus.StateDone {
				t.Errorf("end event state = %s, want done", view.State)
			}
			if view.Result != nil {
				t.Error("end event carries the full result; it must be stripped")
			}
		}
	}
	if !sawEnd {
		t.Fatal("stream closed without an end event")
	}
	if len(levels) == 0 {
		t.Fatal("no live level events")
	}
	prev := 1
	for _, s := range levels {
		if s != prev+1 {
			t.Fatalf("level seqs not consecutive after replay: %v", levels)
		}
		prev = s
	}

	// The stream is torn down: no goroutine keeps the subscription alive.
	waitSubscribers(t, srv, 0)
}

// TestSSELateSubscriber connects after the job finished: the stream must
// replay every level, send the end event, and close.
func TestSSELateSubscriber(t *testing.T) {
	corpustest.CheckLeaks(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/jobs", jobBody(t, "mppm", genomeSeq(t, 400, 7).Data()))
	sub := decode(t, resp.Body)
	resp.Body.Close()
	id := sub["id"].(string)
	final := pollJob(t, ts.URL, id)
	wantLevels := len(final["progress"].([]any))

	stream := openSSE(t, ts.URL, id)
	defer stream.Body.Close()
	var got []sseEvent
	for fr := range readSSE(t, stream.Body) {
		got = append(got, fr)
	}
	if len(got) != wantLevels+1 {
		t.Fatalf("replayed %d frames, want %d levels + 1 end", len(got), wantLevels)
	}
	for i := 0; i < wantLevels; i++ {
		if got[i].name != "level" || got[i].ev.Seq != i+1 {
			t.Errorf("frame %d = %q seq %d", i, got[i].name, got[i].ev.Seq)
		}
	}
	if last := got[len(got)-1]; last.name != "end" {
		t.Errorf("last frame = %q, want end", last.name)
	}
}

// TestSSEDisconnectDoesNotBlockJob disconnects a client while the miner is
// gated and asserts the job still finishes and the subscription is reaped.
func TestSSEDisconnectDoesNotBlockJob(t *testing.T) {
	corpustest.CheckLeaks(t)
	srv, ts := newTestServer(t, Config{Workers: 1})
	levelHit := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.Manager().OnLevel = func(*corpus.Job, core.LevelMetrics) {
		once.Do(func() {
			close(levelHit)
			<-release
		})
	}
	resp := postJSON(t, ts.URL+"/v1/jobs", jobBody(t, "mpp", genomeSeq(t, 400, 7).Data()))
	sub := decode(t, resp.Body)
	resp.Body.Close()
	id := sub["id"].(string)
	<-levelHit

	stream := openSSE(t, ts.URL, id)
	<-readSSE(t, stream.Body) // one replayed frame proves the stream is live
	stream.Body.Close()       // client walks away mid-stream
	close(release)

	if state := pollJob(t, ts.URL, id)["state"]; state != "done" {
		t.Fatalf("job state = %v after subscriber disconnect, want done", state)
	}
	waitSubscribers(t, srv, 0)
}

// TestSSEUnknownJob404 checks the events route validates the job id.
func TestSSEUnknownJob404(t *testing.T) {
	corpustest.CheckLeaks(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := doRequest(t, http.MethodGet, ts.URL+"/v1/jobs/j-999999/events")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// waitSubscribers polls until the broadcaster reports n live streams.
func waitSubscribers(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if srv.events.Stats().Subscribers == n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("subscribers = %d, want %d (stream goroutine leaked?)", srv.events.Stats().Subscribers, n)
}
