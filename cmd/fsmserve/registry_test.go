package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"dpfsm/internal/core"
	"dpfsm/internal/serverapi"
)

func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// registryNames returns the sorted names currently listed by
// GET /v1/machines.
func registryNames(t *testing.T, ts *httptest.Server) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/machines")
	if err != nil {
		t.Fatal(err)
	}
	var infos []serverapi.MachineInfo
	decodeInto(t, resp, &infos)
	names := make([]string, len(infos))
	for i, in := range infos {
		names[i] = in.Name
	}
	sort.Strings(names)
	return names
}

func TestRegisterEndpoint(t *testing.T) {
	_, ts := testServer(t)

	resp := postJSON(t, ts.URL+"/v1/machines", serverapi.RegisterRequest{
		Name: "exfil", Pattern: `SELECT\s+.*\s+INTO\s+OUTFILE`,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status %d", resp.StatusCode)
	}
	var rr serverapi.RegisterResult
	decodeInto(t, resp, &rr)
	if rr.Machine.Name != "exfil" || rr.Machine.Source != "api" {
		t.Fatalf("register result machine: %+v", rr.Machine)
	}
	if rr.Machine.Fingerprint == "" || rr.CompileNs <= 0 {
		t.Fatalf("register result missing compile stats: %+v", rr)
	}
	if rr.PlanCached {
		t.Fatalf("first registration of a new machine reported a cached plan")
	}

	// The machine serves immediately.
	run, err := http.Post(ts.URL+"/v1/run?machine=exfil", "",
		strings.NewReader("SELECT creds  INTO OUTFILE '/tmp/x'"))
	if err != nil {
		t.Fatal(err)
	}
	var res serverapi.RunResult
	decodeInto(t, run, &res)
	if !res.Accepts {
		t.Fatalf("registered machine should accept: %+v", res)
	}

	// Same name again: conflict, registry unchanged.
	resp = postJSON(t, ts.URL+"/v1/machines", serverapi.RegisterRequest{Name: "exfil", Pattern: `x`})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register status %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()

	// Malformed requests.
	for _, bad := range []serverapi.RegisterRequest{
		{Name: "", Pattern: "x"},
		{Name: "nopat", Pattern: ""},
		{Name: "badre", Pattern: "(unclosed"},
		// A compile failure (max range 513 > 256) is a bad request
		// whatever the name says.
		{Name: "duplicate machine", Pattern: "a[ab]{9}b", Strategy: core.RangeCoalesced},
	} {
		resp := postJSON(t, ts.URL+"/v1/machines", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("register %+v: status %d, want 400", bad, resp.StatusCode)
		}
		resp.Body.Close()
	}
	raw, err := http.Post(ts.URL+"/v1/machines", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if raw.StatusCode != http.StatusBadRequest {
		t.Fatalf("unparseable register body: status %d", raw.StatusCode)
	}
	raw.Body.Close()

	// GET one; the listing includes it alongside the defaults.
	var info serverapi.MachineInfo
	one, err := http.Get(ts.URL + "/v1/machines/exfil")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, one, &info)
	if info.Pattern == "" || info.Fingerprint != rr.Machine.Fingerprint {
		t.Fatalf("GET one: %+v", info)
	}
	if names := registryNames(t, ts); !slices.Contains(names, "exfil") {
		t.Fatalf("listing missing exfil: %v", names)
	}

	// DELETE unregisters; a second DELETE and later runs 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/machines/exfil", nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d, want 204", del.StatusCode)
	}
	del2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del2.Body.Close()
	if del2.StatusCode != http.StatusNotFound {
		t.Fatalf("second delete status %d, want 404", del2.StatusCode)
	}
	gone, err := http.Post(ts.URL+"/v1/run?machine=exfil", "", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	gone.Body.Close()
	if gone.StatusCode != http.StatusNotFound {
		t.Fatalf("run after delete status %d, want 404", gone.StatusCode)
	}
}

// TestPlanCacheDirRoundTrip: a second server pointed at the same
// -plan-cache-dir reloads every plan instead of compiling, and the
// reloaded machines produce the same results.
func TestPlanCacheDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	patterns := []string{`sqli=UNION\s+SELECT`, `traversal=\.\./\.\./`}
	inputs := map[string]string{
		"sqli":      "id=0 UNION  SELECT *",
		"traversal": "GET ../../etc/passwd",
	}

	srv1, err := newServer(patterns, core.Auto, 1, 1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for name, in := range inputs {
		m := srv1.engine.Machine(name)
		if m == nil {
			t.Fatalf("machine %q missing", name)
		}
		if m.PlanCached() {
			t.Fatalf("cold start claimed a cached plan for %q", name)
		}
		want[name] = m.Runner().Accepts([]byte(in))
	}
	srv1.Close()
	files, err := filepath.Glob(filepath.Join(dir, "*.plan"))
	if err != nil || len(files) != len(patterns) {
		t.Fatalf("plan dir holds %d files (%v), want %d", len(files), err, len(patterns))
	}

	srv2, err := newServer(patterns, core.Auto, 1, 1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	for name, in := range inputs {
		m := srv2.engine.Machine(name)
		if !m.PlanCached() {
			t.Errorf("restart did not reuse the persisted plan for %q", name)
		}
		if got := m.Runner().Accepts([]byte(in)); got != want[name] {
			t.Errorf("%q: reloaded plan accepts=%v, built plan accepts=%v", name, got, want[name])
		}
	}

	// A corrupt plan file is ignored, not fatal: the machine compiles.
	if err := os.WriteFile(files[0], []byte("garbage, not a plan"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv3, err := newServer(patterns, core.Auto, 1, 1<<20, dir)
	if err != nil {
		t.Fatalf("corrupt plan file broke startup: %v", err)
	}
	defer srv3.Close()
	for name, in := range inputs {
		if got := srv3.engine.Machine(name).Runner().Accepts([]byte(in)); got != want[name] {
			t.Errorf("%q after corruption: accepts=%v want %v", name, got, want[name])
		}
	}
}

func writePatterns(t *testing.T, path string, lines ...string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReloadPatterns drives the SIGHUP reconciliation directly:
// added/changed/removed file machines converge on the file, API
// machines survive, and a bad file aborts with no changes.
func TestReloadPatterns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rules.txt")
	writePatterns(t, path, `alpha=UNION`, `beta=xyz+`)
	specs, err := loadPatternsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(specs, core.Auto, 1, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	// One API-registered machine that reloads must never touch.
	resp := postJSON(t, ts.URL+"/v1/machines", serverapi.RegisterRequest{Name: "api-held", Pattern: `zz`})
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("api register: %d", resp.StatusCode)
	}

	// beta changes, gamma appears, alpha disappears.
	writePatterns(t, path, `beta=xy`, `gamma=\d\d\d`)
	if err := srv.reloadPatterns(path); err != nil {
		t.Fatalf("reload: %v", err)
	}
	got := registryNames(t, ts)
	want := []string{"api-held", "beta", "gamma"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("after reload: %v, want %v", got, want)
	}
	if !srv.engine.Machine("beta").Runner().Accepts([]byte("--xy--")) {
		t.Error("beta still runs its pre-reload pattern")
	}

	// A file claiming an API-held name: reload succeeds but the API
	// machine keeps its pattern.
	writePatterns(t, path, `beta=xy`, `gamma=\d\d\d`, `api-held=www`)
	if err := srv.reloadPatterns(path); err != nil {
		t.Fatalf("reload with api collision: %v", err)
	}
	if !srv.engine.Machine("api-held").Runner().Accepts([]byte("a zz b")) {
		t.Error("reload overwrote an API-registered machine")
	}

	// Bad regex in the file: no mutation at all.
	writePatterns(t, path, `beta=(((`, `delta=ok`)
	if err := srv.reloadPatterns(path); err == nil {
		t.Fatal("reload accepted a file with a bad regex")
	}
	if after := registryNames(t, ts); strings.Join(after, ",") != strings.Join(want, ",") {
		t.Fatalf("failed reload mutated the registry: %v", after)
	}

	// Duplicate names in the file: rejected with both line numbers.
	writePatterns(t, path, `beta=xy`, `# comment`, `beta=other`)
	err = srv.reloadPatterns(path)
	if err == nil || !strings.Contains(err.Error(), "duplicate machine name") {
		t.Fatalf("duplicate names: got %v", err)
	}
	if !strings.Contains(err.Error(), ":3:") || !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("duplicate error lacks line numbers: %v", err)
	}
}

// machineInfos fetches the full /v1/machines listing keyed by name,
// so tests can compare fingerprints — not just names — across a
// failed reload.
func machineInfos(t *testing.T, ts *httptest.Server) map[string]serverapi.MachineInfo {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/machines")
	if err != nil {
		t.Fatal(err)
	}
	var infos []serverapi.MachineInfo
	decodeInto(t, resp, &infos)
	out := make(map[string]serverapi.MachineInfo, len(infos))
	for _, in := range infos {
		out[in.Name] = in
	}
	return out
}

// TestReloadFailurePathsKeepRegistry is the SIGHUP regression suite
// for mid-reload failures: the patterns file vanishing or turning
// syntactically invalid between the signal and the read must leave
// the previous registry fully intact — same names, same fingerprints,
// still serving.
func TestReloadFailurePathsKeepRegistry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rules.txt")
	writePatterns(t, path, `alpha=UNION`, `beta=xyz+`)
	specs, err := loadPatternsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(specs, core.Auto, 1, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	before := machineInfos(t, ts)
	if len(before) != 2 {
		t.Fatalf("seed registry: %v", before)
	}
	assertIntact := func(scenario string) {
		t.Helper()
		after := machineInfos(t, ts)
		if len(after) != len(before) {
			t.Fatalf("%s: registry size changed: %v", scenario, after)
		}
		for name, b := range before {
			a, ok := after[name]
			if !ok {
				t.Fatalf("%s: machine %q gone after failed reload", scenario, name)
			}
			if a.Fingerprint != b.Fingerprint || a.Pattern != b.Pattern {
				t.Fatalf("%s: machine %q mutated: %+v -> %+v", scenario, name, b, a)
			}
		}
		// The survivors still serve.
		resp, err := http.Post(ts.URL+"/v1/run?machine=alpha", "", strings.NewReader("a UNION b"))
		if err != nil {
			t.Fatal(err)
		}
		var res serverapi.RunResult
		decodeInto(t, resp, &res)
		if !res.Accepts {
			t.Fatalf("%s: alpha stopped matching after failed reload", scenario)
		}
	}

	// Scenario 1: the file is deleted before the signal lands.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := srv.reloadPatterns(path); err == nil {
		t.Fatal("reload of a deleted file succeeded")
	} else if !os.IsNotExist(err) {
		t.Fatalf("deleted file: err = %v, want not-exist", err)
	}
	assertIntact("deleted file")

	// Scenario 2: a syntactically invalid line (no NAME=REGEX shape).
	writePatterns(t, path, `alpha=UNION`, `this line has no equals sign`)
	if err := srv.reloadPatterns(path); err == nil ||
		!strings.Contains(err.Error(), "want NAME=REGEX") {
		t.Fatalf("invalid line: err = %v, want NAME=REGEX complaint", err)
	}
	assertIntact("invalid line")

	// Scenario 3: an empty machine name is equally malformed.
	writePatterns(t, path, `=UNION`)
	if err := srv.reloadPatterns(path); err == nil ||
		!strings.Contains(err.Error(), "want NAME=REGEX") {
		t.Fatalf("empty name: err = %v, want NAME=REGEX complaint", err)
	}
	assertIntact("empty name")

	// A good file still reconciles after the string of failures.
	writePatterns(t, path, `alpha=UNION`, `beta=xyz+`, `gamma=\d+`)
	if err := srv.reloadPatterns(path); err != nil {
		t.Fatalf("recovery reload: %v", err)
	}
	if got := registryNames(t, ts); !slices.Equal(got, []string{"alpha", "beta", "gamma"}) {
		t.Fatalf("after recovery: %v", got)
	}
}

// TestReloadSweepsDefaults: a server started on the built-in rule set
// converges fully onto the file at first reload.
func TestReloadSweepsDefaults(t *testing.T) {
	srv, err := newServer(nil, core.Auto, 1, 1<<20, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	path := filepath.Join(t.TempDir(), "rules.txt")
	writePatterns(t, path, `only=abc`)
	if err := srv.reloadPatterns(path); err != nil {
		t.Fatal(err)
	}
	if names := srv.engine.Machines(); len(names) != 1 || names[0] != "only" {
		t.Fatalf("registry after sweep: %v", names)
	}
}
