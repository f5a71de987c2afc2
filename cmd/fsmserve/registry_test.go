package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

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
		// A compile failure is a bad request whatever the name says,
		// even when the error text names a duplicate.
		{Name: "duplicate machine", Pattern: "a[ab]{2,1}b"},
		// Nested counters multiply: refused by the parser's bound on
		// expanded size instead of compiling for seconds or minutes.
		{Name: "nested", Pattern: "(a{100}){100}"},
		{Name: "nested", Pattern: "(a{300}){300}"},
		{Name: "nested", Pattern: "((a{3000}){3000}){3000}"},
		// Past the parser's length bound, which keeps its recursion
		// off the end of the stack.
		{Name: "deep", Pattern: strings.Repeat("(", 1<<17) + "a" + strings.Repeat(")", 1<<17)},
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

// TestPlanCacheDirRoundTrip: the -profile-dir holds no plans. A
// second server over the same directory compiles every machine, writes
// no plan file, and answers exactly as the first; a stray .plan file
// in the directory does not affect startup.
func TestPlanCacheDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	patterns := []string{`sqli=UNION\s+SELECT`, `traversal=\.\./\.\./`}
	inputs := map[string]string{
		"sqli":      "id=0 UNION  SELECT",
		"traversal": "GET ../../",
	}
	// Each input ends where its match does, so the input accepts and
	// its one-byte-shorter prefix does not.
	answers := func(srv *server) map[string][2]bool {
		out := map[string][2]bool{}
		for name, in := range inputs {
			m := srv.engine.Machine(name)
			if m == nil {
				t.Fatalf("machine %q missing", name)
			}
			r := m.Runner()
			out[name] = [2]bool{r.Accepts([]byte(in)), r.Accepts([]byte(in[:len(in)-1]))}
		}
		return out
	}
	noPlanFiles := func() {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(dir, "*.plan"))
		if err != nil || len(files) != 0 {
			t.Fatalf("plan dir holds plan files %v (%v), want none", files, err)
		}
	}

	srv1, err := newServer(patterns, 1, 1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := answers(srv1)
	srv1.Close()
	noPlanFiles()

	srv2, err := newServer(patterns, 1, 1<<20, dir)
	if err != nil {
		t.Fatal(err)
	}
	got := answers(srv2)
	srv2.Close()
	noPlanFiles()
	for name := range inputs {
		if got[name] != want[name] || want[name][0] == want[name][1] {
			t.Errorf("%q: restart answers %v, first server %v", name, got[name], want[name])
		}
	}

	// A garbage plan file, named as the machine's plan once was, is
	// neither read nor removed.
	stray := filepath.Join(dir, srv2.engine.Machine("sqli").Fingerprint()+".plan")
	if err := os.WriteFile(stray, []byte("garbage, not a plan"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv3, err := newServer(patterns, 1, 1<<20, dir)
	if err != nil {
		t.Fatalf("stray plan file broke startup: %v", err)
	}
	defer srv3.Close()
	if got := answers(srv3); !maps.Equal(got, want) {
		t.Errorf("with a stray plan file: answers %v, want %v", got, want)
	}
	if _, err := os.Stat(stray); err != nil {
		t.Errorf("stray plan file: %v", err)
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
	srv, err := newServer(specs, 1, 1<<20, "")
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
	srv, err := newServer(specs, 1, 1<<20, "")
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
	srv, err := newServer(nil, 1, 1<<20, "")
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

// FuzzRegisterRequest drives POST /v1/machines bodies through the
// handler: every answer is 201, 400, 409 or 413, never a 5xx or a
// panic, and a 201 registered exactly the machine it names, which the
// fuzzer unregisters again.
func FuzzRegisterRequest(f *testing.F) {
	for _, seed := range []string{
		`{"name":"exfil","pattern":"SELECT\\s+.*\\s+INTO\\s+OUTFILE"}`,
		`{"name":"sqli","pattern":"x"}`,
		`{"name":"r","pattern":"a[ab]{9}b","strategy":"range-coalesced"}`,
		`{"name":"n","pattern":"(a{100}){100}"}`,
		`{"name":"n","pattern":"(unclosed"}`,
		`{"name":"s","pattern":"x","strategy":"warp"}`,
		`{"name":"","pattern":"x"}`, `{"pattern":"x"}`, `{not json`, `null`, `[]`,
	} {
		f.Add([]byte(seed))
	}
	srv := fuzzServer(f)
	h := srv.mux()
	initial := srv.engine.Machines()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, serverapi.Version+"/machines", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusCreated:
			var rr serverapi.RegisterResult
			if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
				t.Fatalf("body %q: 201 with an undecodable result: %v", body, err)
			}
			if !srv.unregisterMachine(rr.Machine.Name) {
				t.Fatalf("body %q: 201 for %q, which is not registered", body, rr.Machine.Name)
			}
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
		if got := srv.engine.Machines(); !slices.Equal(got, initial) {
			t.Fatalf("body %q: registry %v after the request, want %v", body, got, initial)
		}
	})
}

// FuzzPatternsFile drives a patterns file through loadPatternsFile and
// newServer: the result is an error, or a registry whose names are
// exactly the file's, in file order (the built-in rules when the file
// names none).
func FuzzPatternsFile(f *testing.F) {
	for _, seed := range []string{
		"alpha=UNION\nbeta=xyz+\n", "", "# comment\n\n  \n", "a=1\na=2\n",
		"no equals sign", "=x", "x=(((", "x=(a{100}){100}", "x=a=b\ny=", " spaced = y \r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "rules.txt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		specs, err := loadPatternsFile(path)
		if err != nil {
			return
		}
		srv, err := newServer(specs, 1, 1<<20, "")
		if err != nil {
			return
		}
		defer srv.Close()
		if len(specs) == 0 {
			specs = defaultPatterns
		}
		want := make([]string, len(specs))
		for i, spec := range specs {
			want[i], _, _ = strings.Cut(spec, "=")
		}
		if got := srv.engine.Machines(); !slices.Equal(got, want) {
			t.Fatalf("file %q: registry %v, want %v", data, got, want)
		}
	})
}
