package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExportsAllowed lists the exported funcs and methods that no
// non-test code names outside their own declaration and that stay anyway,
// each with the reason. A key is "pkg.Func" or "pkg.Type.Method".
var testOnlyExportsAllowed = map[string]string{
	// Fuzz targets: the committed corpora exercise these parsers.
	"stream.ReadRequest":       "fuzz target FuzzReadRequest",
	"cluster.ReadFetchRequest": "fuzz target FuzzReadFetchRequest",
	"codec.NewBitReader":       "fuzz target FuzzBitReader",
	"frame.ReadPPM":            "fuzz target FuzzReadPPM",

	// Reached by a test in another package.
	"obs.Registry.SetTraceSampling": "root TestTraceSamplingDisabledEndToEnd turns tracing off through it",
	"obs.Exposition.Names":          "root telemetry test walks every scraped family through it",
	"faults.Injector.Dialer":        "internal/stream chaos and resilience tests inject client faults through it",
	"battery.NewGauge":              "internal/adaptive ladder tests build a pack-backed gauge through it",
	"histogram.FromLuma":            "internal/annotation tests and ExampleFromScenes build histograms through it",
	"frame.Frame.Map":               "quality, camera and SSIM tests and ExampleSSIM derive distorted frames with it",

	// Tests of live behaviour that assert through the name.
	"breaker.Breaker.Counts":             "breaker window tests read the live failure counts through it",
	"cluster.Node.SelfAddr":              "TestNodeOwnerSkipsOpenBreaker checks ownership against it",
	"display.Profile.PerceivedIntensity": "TestPerceivedIntensityModel pins the display model through it",
	"power.ReadCSV":                      "power CSV tests read the live WriteCSV output back through it",
	"frame.Frame.Equal":                  "codec and frame tests compare decoded frames through it",
	"codec.Picture.ToFrame":              "TestPictureConversionRoundTrip checks the live colour conversion through it",
	"codec.FromFrame":                    "TestPictureConversionRoundTrip and TestPaddedSearchMatchesReference convert frames through it",
	"frame.Frame.PSNR":                   "codec tests and TestFileRoundTripPlayback measure decoded quality through it",
	"obs.Span.SpanContext":               "trace tests check live span propagation through it",
	"compensate.PlanFor":                 "compensate tests build the plans the live Evaluate scores through it",
	"battery.Gauge.Fraction":             "gauge tests read the live gauge's charge through it",
	"annstore.Report.Corrupt":            "TestFsckQuarantinesAndReports checks the live fsck report through it",
	"roi.Mask.Coverage":                  "roi tests check the live Mask.Set bounds through it",

	// Documentation and experiments.
	"annotation.FromScenes":       "EXPERIMENTS.md reproduction note: the aggregate-histogram reading",
	"roi.Rect":                    "ExampleMask_FrameTarget builds its protected title band with it",
	"video.DefaultLibraryOptions": "README's API example and TestFrameMatchesReferenceRenderer use it",
}

// TestNoTestOnlyExports keeps production code that only tests reach from
// growing back. It parses every non-test .go file of the module, of the
// separate bench/ module and of examples/ (syntax only, no type
// checking) and lists the exported top-level funcs and methods of the
// module that no non-test file names outside their own declaration. A
// name counts only in a file of the declaring package or of one that
// imports it, and a method name counts only as a selector (x.M) whose x
// is not a package name. A listed name that is not in
// testOnlyExportsAllowed fails the test, and so does an allowlist entry
// the scan no longer lists.
//
// Names that only the bench/ module reaches, such as annstore.Store.Keys
// and Proxy.SetDial, are not listed, because the scan reads bench/ too.
//
// The scan matches names, not objects, so a name collision hides dead
// code: a dead codec.Picture.Clone stays invisible while frames are
// cloned, and a dead faults.Injector.Config while the ladder's Config is
// called. The stateful backlightdev.Device.Set and Level were found only
// by a type-aware scan.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key, pkg string
		method   bool
		pos, end token.Pos
	}
	type use struct {
		pos      token.Pos
		selector bool // x.Name with x not a package name
		pkgs     map[string]bool
	}
	fset := token.NewFileSet()
	var decls []decl
	uses := map[string][]use{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// The packages whose names this file can see: its own (bench/ is
		// the module repro/bench) and its imports, by local name.
		pkg := filepath.ToSlash(filepath.Join("repro", filepath.Dir(path)))
		pkgs := map[string]bool{pkg: true}
		local := map[string]bool{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			pkgs[p] = true
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			local[name] = true
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); !ok || !local[id.Name] {
					uses[x.Sel.Name] = append(uses[x.Sel.Name], use{x.Sel.Pos(), true, pkgs})
				}
			case *ast.Ident:
				uses[x.Name] = append(uses[x.Name], use{x.Pos(), false, pkgs})
			}
			return true
		})
		if strings.HasPrefix(filepath.ToSlash(path), "bench/") {
			return nil // a separate module: it only counts as a user
		}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			key := f.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				key = f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls = append(decls, decl{key, pkg, fd.Recv != nil, fd.Pos(), fd.End()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	hits := map[string]bool{}
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		used := false
		for _, u := range uses[name] {
			if (u.pos < d.pos || u.pos >= d.end) && (d.method && u.selector || !d.method && u.pkgs[d.pkg]) {
				used = true
				break
			}
		}
		if !used {
			hits[d.key] = true
		}
	}
	keys := make([]string, 0, len(hits))
	for k := range hits {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if reason, ok := testOnlyExportsAllowed[k]; ok {
			t.Logf("allowed %s: %s", k, reason)
			continue
		}
		t.Errorf("%s is exported but only tests name it: delete it, unexport it, or add it to testOnlyExportsAllowed with the reason", k)
	}
	for k := range testOnlyExportsAllowed {
		if !hits[k] {
			t.Errorf("testOnlyExportsAllowed lists %s, which non-test code now names or which no longer exists: remove the entry", k)
		}
	}
}

// recvName returns the type name of a method receiver, without pointer or
// type parameters.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
