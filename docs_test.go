package mhm2sim

// The docs name code: README.md, DESIGN.md and EXPERIMENTS.md cite packages,
// types, members, tests and benchmark metrics in backticks, and Go comments,
// README.md, EXPERIMENTS.md and ROADMAP.md cite DESIGN.md's sections. These
// tests resolve every such name against the module's source (parsed with
// go/parser), the standard library (found with go/build), BENCHMARK.json's
// metric lists and the exact ledger, so a rename or a deletion that leaves a
// doc behind fails `go test ./...`.

import (
	"encoding/json"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// checkedDocs are the files whose backticked names must resolve. A line of
// internal/reach.allow is plain text: its reasons' names are read as if
// backticked. bench/README.md is not checked: bench/ changes only with the
// benchmark itself.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "internal/reach.allow"}

// citingDocs are the Markdown files whose DESIGN.md section citations must
// resolve; every Go comment in the module is checked too.
var citingDocs = []string{"README.md", "EXPERIMENTS.md", "ROADMAP.md"}

// typeDecl is what a name can reach through one declared type: its fields,
// methods and interface methods, and the types it embeds (for promotion).
type typeDecl struct {
	members map[string]bool
	embeds  []string // "T" for a type of the same package, "pkg.T" otherwise
}

// pkgDecls is one directory's declarations, its _test.go files included.
type pkgDecls struct {
	names map[string]bool // package-level funcs, types, vars and consts
	types map[string]*typeDecl
}

func newPkgDecls() *pkgDecls {
	return &pkgDecls{names: map[string]bool{}, types: map[string]*typeDecl{}}
}

// docIndex answers whether a cited name exists.
type docIndex struct {
	pkgs    map[string][]*pkgDecls // module packages by package name
	types   map[string][]*pkgDecls // module packages declaring a type, by type name
	tests   map[string]bool        // Test/Fuzz/Benchmark/Example funcs anywhere in the module
	metrics map[string]bool        // BENCHMARK.json's end_to_end and per_layer names
	ledger  []string               // the exact ledger's line names (EXPERIMENTS.md)
	std     map[string]*pkgDecls   // standard-library packages parsed so far (nil: none)
}

var testFuncRE = regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)([^a-z].*)?$`)

// addFile records one parsed file's declarations in p.
func (p *pkgDecls) addFile(f *ast.File) {
	typ := func(name string) *typeDecl {
		if p.types[name] == nil {
			p.types[name] = &typeDecl{members: map[string]bool{}}
		}
		return p.types[name]
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.names[d.Name.Name] = true
				continue
			}
			if recv := typeName(d.Recv.List[0].Type); recv != "" {
				typ(recv).members[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.names[n.Name] = true
					}
				case *ast.TypeSpec:
					p.names[s.Name.Name] = true
					t := typ(s.Name.Name)
					var fields []*ast.Field
					switch st := s.Type.(type) {
					case *ast.StructType:
						fields = st.Fields.List
					case *ast.InterfaceType:
						fields = st.Methods.List
					}
					for _, fl := range fields {
						for _, n := range fl.Names {
							t.members[n.Name] = true
						}
						if fl.Tag != nil { // a JSON key names the field too
							tag, _ := strconv.Unquote(fl.Tag.Value)
							if k, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ","); k != "" && k != "-" {
								t.members[k] = true
							}
						}
						if len(fl.Names) == 0 { // embedded
							if e := typeName(fl.Type); e != "" {
								t.members[e[strings.LastIndex(e, ".")+1:]] = true
								t.embeds = append(t.embeds, e)
							}
						}
					}
				}
			}
		}
	}
}

// typeName is the name of a receiver or embedded type: T, *T, T[P] or pkg.T.
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			return x.Name + "." + e.Sel.Name
		}
	}
	return ""
}

// parseDir parses every .go file of dir into one pkgDecls and returns it with
// its package name (a _test package counts as the package it tests).
func parseDir(dir string, withTests bool) (*pkgDecls, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	p, name := newPkgDecls(), ""
	fset := token.NewFileSet()
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || (!withTests && strings.HasSuffix(n, "_test.go")) {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, "", err
		}
		if pn := strings.TrimSuffix(f.Name.Name, "_test"); name == "" || !strings.HasSuffix(n, "_test.go") {
			name = pn
		}
		p.addFile(f)
	}
	return p, name, nil
}

// goDirs lists the module's directories that hold Go files, relative to root.
func goDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir, _ := filepath.Rel(root, filepath.Dir(path))
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// loadIndex parses the module under root and reads its metric and ledger names.
func loadIndex(root string) (*docIndex, error) {
	ix := &docIndex{pkgs: map[string][]*pkgDecls{}, types: map[string][]*pkgDecls{},
		tests: map[string]bool{}, metrics: map[string]bool{}, std: map[string]*pkgDecls{}}
	dirs, err := goDirs(root)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		p, name, err := parseDir(filepath.Join(root, dir), true)
		if err != nil {
			return nil, err
		}
		ix.pkgs[name] = append(ix.pkgs[name], p)
		for t := range p.types {
			ix.types[t] = append(ix.types[t], p)
		}
		for n := range p.names {
			if testFuncRE.MatchString(n) {
				ix.tests[n] = true
			}
		}
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		return nil, err
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		ix.metrics[m.Name] = true
	}
	exp, err := os.ReadFile(filepath.Join(root, "EXPERIMENTS.md"))
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(generatedBlock(string(exp), "ledger"), "\n") {
		if f := strings.Fields(line); len(f) > 0 && !strings.HasPrefix(line, "<!--") {
			ix.ledger = append(ix.ledger, f[0])
		}
	}
	return ix, nil
}

// stdPrefixes are the standard-library directories a package name may sit in
// (json is encoding/json, rand is math/rand).
var stdPrefixes = []string{"", "archive/", "compress/", "container/", "crypto/", "database/", "debug/",
	"encoding/", "go/", "hash/", "html/", "image/", "io/", "log/", "math/", "mime/", "net/",
	"net/http/", "os/", "path/", "regexp/", "runtime/", "sync/", "testing/", "text/", "unicode/"}

// stdPkg parses the standard-library package named name, or returns nil.
func (ix *docIndex) stdPkg(name string) *pkgDecls {
	if p, ok := ix.std[name]; ok {
		return p
	}
	var found *pkgDecls
	for _, pre := range stdPrefixes {
		dir := filepath.Join(build.Default.GOROOT, "src", pre+name)
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		if p, pn, err := parseDir(dir, false); err == nil && pn == name {
			found = p
			break
		}
	}
	ix.std[name] = found
	return found
}

// hasMember reports whether type t of package p has member m, declared or
// promoted through an embedded type of the module.
func (ix *docIndex) hasMember(p *pkgDecls, t, m string, depth int) bool {
	td := p.types[t]
	if td == nil || depth > 4 {
		return false
	}
	if td.members[m] {
		return true
	}
	for _, e := range td.embeds {
		if i := strings.IndexByte(e, '.'); i >= 0 {
			for _, q := range ix.pkgs[e[:i]] {
				if ix.hasMember(q, e[i+1:], m, depth+1) {
					return true
				}
			}
		} else if ix.hasMember(p, e, m, depth+1) {
			return true
		}
	}
	return false
}

// inLedger reports whether the dotted name is a run of whole segments of an
// exact-ledger line name (`roofline.v1.KernelTime`, `dist.comm_bytes` inside
// `chaos.dist.comm_bytes`).
func (ix *docIndex) inLedger(name string) bool {
	for _, l := range ix.ledger {
		if l == name || strings.HasPrefix(l, name+".") || strings.HasSuffix(l, "."+name) || strings.Contains(l, "."+name+".") {
			return true
		}
	}
	return false
}

// resolve reports whether a cited name exists. Its first segment may name a
// package of the module or of the standard library, or a type of the module;
// the name exists when one of those readings finds it. A name with no such
// reading is not a code name (a file, a flag, a local such as
// `rec.Evictions`) and resolves trivially; so does a single segment other
// than a test name.
func (ix *docIndex) resolve(name string) bool {
	segs := strings.Split(name, ".")
	if fileExts[segs[len(segs)-1]] {
		return true
	}
	if len(segs) == 1 {
		return !testFuncRE.MatchString(name) || ix.tests[name]
	}
	pkgs := ix.pkgs[segs[0]]
	if len(pkgs) == 0 {
		if p := ix.stdPkg(segs[0]); p != nil {
			pkgs = []*pkgDecls{p}
		}
	}
	types := ix.types[segs[0]]
	if len(pkgs) == 0 && len(types) == 0 {
		return true
	}
	for _, p := range pkgs {
		if p.names[segs[1]] && (len(segs) == 2 || p.types[segs[1]] == nil || ix.hasMember(p, segs[1], segs[2], 0)) {
			return true
		}
	}
	for _, p := range types {
		if ix.hasMember(p, segs[0], segs[1], 0) {
			return true
		}
	}
	return len(pkgs) > 0 && len(segs) == 2 && ix.metrics[name] || ix.inLedger(name)
}

// fileExts end a file name, which is no code name (`ledger.go`).
var fileExts = map[string]bool{"go": true, "json": true, "md": true, "txt": true, "sh": true,
	"ledger": true, "golden": true, "allow": true, "yml": true, "fasta": true, "fastq": true, "dump": true}

// A cited name: a dotted Go identifier, optionally with a call's parentheses
// or a pointer's star; a test name may carry a subtest path.
var (
	backtickRE = regexp.MustCompile("`([^`]+)`")
	nameRE     = regexp.MustCompile(`^\*?([A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*)(?:\(.*\))?(?:/\S*)?$`)
	wordRE     = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)+|\b(?:Test|Fuzz|Benchmark|Example)[A-Z0-9_][A-Za-z0-9_]*`)
	fenceRE    = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```[^\\n]*$")
	prNumberRE = regexp.MustCompile(`\bPRs? ?#?[0-9]+`)
)

// generatedBlock returns the lines between EXPERIMENTS.md's
// `<!-- kind:begin -->` and `<!-- kind:end -->` markers.
func generatedBlock(doc, kind string) string {
	begin, end := "<!-- "+kind+":begin -->", "<!-- "+kind+":end -->"
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		return ""
	}
	return doc[i+len(begin) : j]
}

// prose is doc without its fenced code blocks and EXPERIMENTS.md's two
// generated blocks, which are output, not prose.
func prose(doc string) string {
	doc = fenceRE.ReplaceAllString(doc, "")
	for _, kind := range []string{"scorecard", "ledger"} {
		if b := generatedBlock(doc, kind); b != "" {
			doc = strings.Replace(doc, b, "\n", 1)
		}
	}
	return doc
}

// citedNames returns every name doc cites. A Markdown doc cites in
// backticks; a plain-text doc (reach.allow) cites in its words.
func citedNames(doc string, plain bool) []string {
	var names []string
	if plain {
		for _, line := range strings.Split(doc, "\n") {
			if !strings.HasPrefix(line, "#") {
				if f := strings.Fields(line); len(f) > 2 { // file, function, reason
					names = append(names, wordRE.FindAllString(strings.Join(f[2:], " "), -1)...)
				}
			}
		}
		return names
	}
	for _, m := range backtickRE.FindAllStringSubmatch(prose(doc), -1) {
		if n := nameRE.FindStringSubmatch(strings.TrimSpace(m[1])); n != nil {
			names = append(names, n[1])
		}
	}
	return names
}

// staleNames returns the names doc cites that ix cannot resolve, sorted.
func staleNames(ix *docIndex, doc string, plain bool) []string {
	seen := map[string]bool{}
	var stale []string
	for _, n := range citedNames(doc, plain) {
		if !seen[n] {
			seen[n] = true
			if !ix.resolve(n) {
				stale = append(stale, n)
			}
		}
	}
	sort.Strings(stale)
	return stale
}

var (
	docIx    *docIndex
	docIxErr error
)

func moduleIndex(t *testing.T) *docIndex {
	t.Helper()
	if docIx == nil && docIxErr == nil {
		docIx, docIxErr = loadIndex(".")
	}
	if docIxErr != nil {
		t.Fatal(docIxErr)
	}
	return docIx
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDocsNamesResolve: every name the checked docs cite exists.
func TestDocsNamesResolve(t *testing.T) {
	ix := moduleIndex(t)
	for _, f := range checkedDocs {
		for _, n := range staleNames(ix, readDoc(t, f), !strings.HasSuffix(f, ".md")) {
			t.Errorf("%s cites `%s`, which nothing in the module, the standard library, BENCHMARK.json or the exact ledger defines", f, n)
		}
	}
}

// TestDocsResolverReportsPlantedNames: the resolver reports names that went
// and keeps names that exist, in each form it reads.
func TestDocsResolverReportsPlantedNames(t *testing.T) {
	ix := moduleIndex(t)
	doc := "Stale: `pipeline.UseGPUAln`, `pipeline.TestPipelineGPUMatchesCPUContigs`, `Warp.MatchAny`, `simt.warp_instr`.\n" +
		"Live: `locassm.Engine`, `sync.Pool`, `simt.warp_instrs`, `TestPipelinedMatchesSequential`, `Warp.Exec`.\n" +
		"Not code: `rec.Evictions`, `engine.go`, `-workers`.\n" +
		"```\n`Warp.ShflIdx` in a fenced block is not read\n```\n"
	want := []string{"Warp.MatchAny", "pipeline.TestPipelineGPUMatchesCPUContigs", "pipeline.UseGPUAln", "simt.warp_instr"}
	if got := staleNames(ix, doc, false); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("stale names = %q, want %q", got, want)
	}
	allow := "internal/x.go f reason: TestNoSuchTest checks it against locassm.NoSuchName and TestPipelinedMatchesSequential\n"
	want = []string{"TestNoSuchTest", "locassm.NoSuchName"}
	if got := staleNames(ix, allow, true); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("stale reach.allow names = %q, want %q", got, want)
	}
}

// designSections splits DESIGN.md into its numbered `## N.` sections.
func designSections(t *testing.T) map[string]string {
	t.Helper()
	secs := map[string]string{}
	head := regexp.MustCompile(`(?m)^## ([0-9]+)\. `)
	doc := readDoc(t, "DESIGN.md")
	locs := head.FindAllStringSubmatchIndex(doc, -1)
	for i, l := range locs {
		end := len(doc)
		if i+1 < len(locs) {
			end = locs[i+1][0]
		}
		secs[doc[l[2]:l[3]]] = doc[l[0]:end]
	}
	return secs
}

// TestDocsInventory: DESIGN.md §3 names every package under internal/ and
// cmd/ and no other, and every internal/ or cmd/ path a checked doc names
// exists.
func TestDocsInventory(t *testing.T) {
	dirs, err := goDirs(".")
	if err != nil {
		t.Fatal(err)
	}
	pathRE := regexp.MustCompile(`(?:^|[\s(` + "`" + `'"\[]|\./)((?:internal|cmd)/[A-Za-z0-9_./*<>-]*)`)
	named := map[string]bool{}
	for _, m := range pathRE.FindAllStringSubmatch(designSections(t)["3"], -1) {
		named[strings.TrimRight(m[1], "./")] = true
	}
	for _, d := range dirs {
		d = filepath.ToSlash(d)
		if (strings.HasPrefix(d, "internal/") || strings.HasPrefix(d, "cmd/")) && !named[d] {
			t.Errorf("DESIGN.md §3 does not list package %s", d)
		}
		delete(named, d)
	}
	for d := range named {
		t.Errorf("DESIGN.md §3 lists %s, which holds no package", d)
	}
	for _, f := range checkedDocs {
		if !strings.HasSuffix(f, ".md") {
			continue
		}
		for _, m := range pathRE.FindAllStringSubmatch(prose(readDoc(t, f)), -1) {
			p := strings.TrimRight(m[1], ".,:;")
			if strings.ContainsAny(p, "*<>") {
				continue
			}
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s, which does not exist", f, p)
			}
		}
	}
}

// A citation: `DESIGN.md §12 "Ordered commit", §15` — a section number, then
// any quoted run-in titles of it, then any further sections.
var (
	citationRE = regexp.MustCompile(`DESIGN(?:\.md)?,? §[0-9]+(?:(?:,? (?:and |or )?)(?:§[0-9]+|["“][^"”]+["”]))*`)
	citeItemRE = regexp.MustCompile(`§([0-9]+)|["“]([^"”]+)["”]`)
	runInRE    = regexp.MustCompile(`\*\*([^*]+)\*\*|(?:^|[^*\w])\*([^*\s][^*]*[^*\s]|[^*\s])\*`)
)

func normTitle(s string) string {
	s = strings.ToLower(strings.ReplaceAll(s, "`", ""))
	return strings.TrimRight(strings.Join(strings.Fields(s), " "), ".:")
}

// TestDocsSectionCitations: each DESIGN.md section citation in Go comments,
// README.md, EXPERIMENTS.md and ROADMAP.md names a `## N.` section, and each
// quoted title names a bold or italic run-in title inside it.
func TestDocsSectionCitations(t *testing.T) {
	titles := map[string]map[string]bool{}
	for n, s := range designSections(t) {
		titles[n] = map[string]bool{}
		for _, m := range runInRE.FindAllStringSubmatch(s, -1) {
			titles[n][normTitle(m[1]+m[2])] = true
		}
	}
	check := func(where, text string) {
		text = strings.Join(strings.Fields(text), " ")
		for _, c := range citationRE.FindAllString(text, -1) {
			sec := ""
			for _, it := range citeItemRE.FindAllStringSubmatch(c, -1) {
				switch {
				case it[1] != "":
					sec = it[1]
					if titles[sec] == nil {
						t.Errorf("%s cites DESIGN.md §%s, which has no `## %s.` heading", where, sec, sec)
					}
				case titles[sec] != nil && !titles[sec][normTitle(it[2])]:
					t.Errorf("%s cites DESIGN.md §%s %q, which is no run-in title of that section", where, sec, it[2])
				}
			}
		}
	}
	for _, f := range citingDocs {
		check(f, readDoc(t, f))
	}
	dirs, err := goDirs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, d := range dirs {
		files, _ := filepath.Glob(filepath.Join(d, "*.go")) // the pattern is well-formed
		for _, fn := range files {
			f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, cg := range f.Comments {
				check(fset.Position(cg.Pos()).String(), cg.Text())
			}
		}
	}
}

// TestDocsNoPRNumbers: DESIGN.md and README.md describe the tree as it is;
// which change brought what is CHANGES.md's record.
func TestDocsNoPRNumbers(t *testing.T) {
	for _, f := range []string{"DESIGN.md", "README.md"} {
		for i, line := range strings.Split(readDoc(t, f), "\n") {
			if m := prNumberRE.FindString(line); m != "" {
				t.Errorf("%s:%d names %q", f, i+1, m)
			}
		}
	}
}
