package admin

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"condisc"
	"condisc/internal/doctor"
	"condisc/internal/journal"
	"condisc/internal/telemetry"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("demo_total").Add(7)
	reg.Histogram("demo_hops").Observe(3)
	reg.Emitf("join", "node joined at 0.25")
	status := func() any { return map[string]any{"addr": "127.0.0.1:7001", "items": 42} }

	srv, err := Serve("127.0.0.1:0", Handler(reg, status))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	if code, body := get(t, base+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{"demo_total 7", "# TYPE demo_hops histogram", `demo_hops_bucket{le="3"} 1`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, base+"/statusz")
	if code != 200 {
		t.Fatalf("/statusz = %d", code)
	}
	var doc struct {
		Node    map[string]any     `json:"node"`
		Metrics telemetry.Snapshot `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/statusz not JSON: %v\n%s", err, body)
	}
	if doc.Node["items"] != float64(42) {
		t.Fatalf("/statusz node = %+v", doc.Node)
	}
	if doc.Metrics.Counters["demo_total"] != 7 {
		t.Fatalf("/statusz metrics = %+v", doc.Metrics)
	}
	if len(doc.Metrics.Events) != 1 || doc.Metrics.Events[0].Kind != "join" {
		t.Fatalf("/statusz events = %+v", doc.Metrics.Events)
	}

	if code, body := get(t, base+"/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d %q", code, body)
	}

	// Without WithJournal/WithDoctor the observability endpoints answer
	// 404, not an empty document a scraper could mistake for health.
	if code, _ := get(t, base+"/journalz"); code != 404 {
		t.Fatalf("/journalz without journal = %d, want 404", code)
	}
	if code, _ := get(t, base+"/doctorz"); code != 404 {
		t.Fatalf("/doctorz without doctor = %d, want 404", code)
	}
}

func TestJournalAndDoctorEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	jrn := journal.New(64)
	jrn.Record(journal.KindChurn, 3, 1, 42, 0, 1)
	jrn.Record(journal.KindEpochPublish, 4, 2, 7, 0, 0)

	report := doctor.Report{Healthy: true, Verdicts: []doctor.Verdict{
		{Invariant: doctor.InvSmoothness, OK: true, Value: 2, Limit: 64, Margin: 0.96875},
	}}
	var mu sync.Mutex
	doctorFn := func() doctor.Report {
		mu.Lock()
		defer mu.Unlock()
		return report
	}

	srv, err := Serve("127.0.0.1:0", Handler(reg, nil,
		WithJournal(9, "127.0.0.1:7009", jrn), WithDoctor(doctorFn)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	code, body := get(t, base+"/journalz")
	if code != 200 {
		t.Fatalf("/journalz = %d", code)
	}
	var stream journal.Stream
	if err := json.Unmarshal([]byte(body), &stream); err != nil {
		t.Fatalf("/journalz not JSON: %v\n%s", err, body)
	}
	if stream.Node != 9 || stream.Addr != "127.0.0.1:7009" {
		t.Fatalf("/journalz identity = %d %q", stream.Node, stream.Addr)
	}
	if len(stream.Records) != 2 || stream.Records[0].Kind != journal.KindChurn ||
		stream.Records[1].Kind != journal.KindEpochPublish {
		t.Fatalf("/journalz records = %+v", stream.Records)
	}

	code, body = get(t, base+"/doctorz")
	if code != 200 {
		t.Fatalf("/doctorz = %d", code)
	}
	var rep doctor.Report
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatalf("/doctorz not JSON: %v\n%s", err, body)
	}
	if !rep.Healthy || len(rep.Verdicts) != 1 || rep.Verdicts[0].Invariant != doctor.InvSmoothness {
		t.Fatalf("/doctorz report = %+v", rep)
	}

	if code, body := get(t, base+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthy /healthz = %d %q", code, body)
	}

	// Flip the report unhealthy: /healthz must degrade to 503 and name
	// the breached invariants.
	mu.Lock()
	report = doctor.Report{Healthy: false, Verdicts: []doctor.Verdict{
		{Invariant: doctor.InvSmoothness, OK: false, Value: 9000, Limit: 64, Margin: -139.6},
		{Invariant: doctor.InvDegree, OK: true, Value: 6, Limit: 64, Margin: 0.90625},
	}}
	mu.Unlock()
	code, body = get(t, base+"/healthz")
	if code != 503 || body != "degraded: "+doctor.InvSmoothness+"\n" {
		t.Fatalf("degraded /healthz = %d %q", code, body)
	}
}

// TestScrapeUnderChurn runs batches of 16 serial joins and leaves on a
// live DHT while hammering /statusz, /journalz, and /doctorz: the
// observability plane must stay consistent (and race-free under -race)
// while the state it reports is being rewritten underneath it.
func TestScrapeUnderChurn(t *testing.T) {
	reg := telemetry.NewRegistry()
	jrn := journal.New(1 << 14)
	d := condisc.New(64, condisc.Options{Seed: 7, Telemetry: reg, Journal: jrn})
	defer d.Close()

	// The status callback must use churn-safe reads: Doctor serializes
	// with churn on the DHT's own mutex (the bare d.N() would race).
	status := func() any { return map[string]any{"healthy": d.Doctor().Healthy} }
	srv, err := Serve("127.0.0.1:0", Handler(reg, status,
		WithJournal(1, "test", jrn), WithDoctor(d.Doctor)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr

	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 8; round++ {
			ids := d.JoinBatch(16)
			if err := d.LeaveBatch(ids); err != nil {
				t.Errorf("round %d leave: %v", round, err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, ep := range []string{"/statusz", "/journalz", "/doctorz"} {
					code, body := get(t, base+ep)
					if code != 200 {
						t.Errorf("%s = %d under churn", ep, code)
						return
					}
					if !json.Valid([]byte(body)) {
						t.Errorf("%s returned invalid JSON under churn", ep)
						return
					}
				}
			}
		}()
	}
	<-done
	wg.Wait()

	// The journal must have captured the churn: every event emits one churn
	// record and a publish; the leaves are its records with C = 0.
	var churn, leaves, publishes int
	for _, r := range jrn.Records() {
		switch r.Kind {
		case journal.KindChurn:
			churn++
			if r.C == 0 {
				leaves++
			}
		case journal.KindEpochPublish:
			publishes++
		}
	}
	if churn < 256 || leaves < 128 || publishes < 16 {
		t.Fatalf("journal undercounts churn: churn=%d leaves=%d publishes=%d",
			churn, leaves, publishes)
	}
}
