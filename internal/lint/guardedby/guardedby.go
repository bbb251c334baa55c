// Package guardedby enforces a lightweight lock-annotation convention on
// concurrent structs, in the spirit of Clang's thread-safety analysis and
// Java's @GuardedBy, scaled down to what a syntactic pass can honestly
// check.
//
// Convention: a struct field whose comment contains "guarded by <mutex>"
// (case-insensitive) names the sibling field that must be held when the
// field is read or written:
//
//	mu    sync.Mutex
//	queue *readyq.Queue // guarded by mu
//
// Every method of the struct that mentions an annotated field through its
// receiver must either contain a call to recv.<mutex>.Lock() or
// recv.<mutex>.RLock() somewhere in its body, or declare by naming
// convention that its caller already holds the lock (method name ending
// in "Locked"). Plain functions, including constructors that populate the
// struct before it escapes, are outside the method set and exempt.
//
// This is deliberately best-effort: it does not track lock/unlock
// ordering or flow, so a method that unlocks before touching the field
// still passes. The race detector covers the dynamic side; guardedby
// keeps the static annotation honest and makes unguarded-access review a
// grep instead of an archaeology dig.
package guardedby

import (
	"go/ast"
	"regexp"
	"strings"

	"unitdb/internal/lint/analysis"
)

// Analyzer is the guardedby pass.
var Analyzer = &analysis.Analyzer{
	Name: "guardedby",
	Doc:  "methods touching a '// guarded by mu' field must lock that mutex",
	Run:  run,
}

var guardRE = regexp.MustCompile(`(?i)guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// Guards maps struct name → field name → guarding mutex field name. It is
// exported for guardedflow, which upgrades the same annotations from
// comment-presence checking to flow-sensitive enforcement.
type Guards map[string]map[string]string

func run(pass *analysis.Pass) error {
	g := CollectGuards(pass.Pkg.Files)
	if len(g) == 0 {
		return nil
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			checkMethod(pass, g, fd)
		}
	}
	return nil
}

// CollectGuards finds annotated fields across the package's structs.
func CollectGuards(files []*ast.File) Guards {
	g := Guards{}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mutex := guardAnnotation(field)
				if mutex == "" {
					continue
				}
				m := g[ts.Name.Name]
				if m == nil {
					m = map[string]string{}
					g[ts.Name.Name] = m
				}
				for _, name := range field.Names {
					m[name.Name] = mutex
				}
			}
			return true
		})
	}
	return g
}

// guardAnnotation extracts the mutex name from a field's doc or trailing
// comment, or returns "".
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// ReceiverName returns the receiver identifier and its struct type name.
func ReceiverName(fd *ast.FuncDecl) (recv, typ string) {
	if len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return "", ""
	}
	recv = fd.Recv.List[0].Names[0].Name
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Drop type parameters on generic receivers.
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return recv, id.Name
	}
	return "", ""
}

func checkMethod(pass *analysis.Pass, g Guards, fd *ast.FuncDecl) {
	recv, typ := ReceiverName(fd)
	fields := g[typ]
	if recv == "" || recv == "_" || len(fields) == 0 {
		return
	}
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return // caller-holds-lock convention
	}
	held := lockedMutexes(fd.Body, recv)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Name != recv {
			return true
		}
		mutex, guarded := fields[sel.Sel.Name]
		if !guarded || held[mutex] {
			return true
		}
		pass.Reportf(sel.Pos(),
			"%s.%s is guarded by %q but method %s.%s never locks %s.%s (suffix the name with Locked if the caller holds it)",
			recv, sel.Sel.Name, mutex, typ, fd.Name.Name, recv, mutex)
		return true
	})
}

// lockedMutexes collects mutex field names m for which the body contains
// recv.m.Lock() or recv.m.RLock().
func lockedMutexes(body *ast.BlockStmt, recv string) map[string]bool {
	held := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		inner, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := inner.X.(*ast.Ident)
		if !ok || id.Name != recv {
			return true
		}
		held[inner.Sel.Name] = true
		return true
	})
	return held
}
