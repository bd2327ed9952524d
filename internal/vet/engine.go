package vet

// The relvet 2xx plane: engine-invariant analyzers that check the
// engine's own source (internal/core, internal/instance,
// internal/dstruct, internal/colblock, internal/durable, internal/wal)
// rather than client
// code. Where the 1xx analyzers are intraprocedural pattern checks,
// these lean on the interprocedural layer in internal/analysis —
// per-function summaries, a call graph, and the //relvet:role
// annotation contract (see internal/analysis/interproc.go for the
// vocabulary) — to state the MVCC and durability invariants of PR 7/8
// statically:
//
//	relvet200  the role-annotation contract itself (unknown or
//	           misplaced //relvet:role markers)
//	relvet201  published versions are immutable outside fork/clone/
//	           config roles (COW write discipline), and a clone copies
//	           the word arrays it is about to write instead of aliasing
//	           its source's
//	relvet202  nothing reachable from a role=read entry point may
//	           lock or write engine state, or enter a role=writer
//	           function (lock-free read purity)
//	relvet203  wal.Append dominates the publish on durable mutation
//	           paths; error paths must not publish
//	relvet204  the published atomic.Pointer is stored only at
//	           role=publish points and never copied non-atomically
//
// The dynamic twins of 201/202 are the ExhaustCOW harness and
// mvcc_lockfree_test.go; of 203, the ExhaustWAL kill-point harness.
// The analyzers are the static half: they fail `make lint-engine`
// before a bad refactor ever reaches those suites.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/diag"
	"repro/internal/lint"
)

// Engine-invariant plane codes.
const (
	CodeRoleAnnotation diag.Code = "relvet200"
	CodeCowWrite       diag.Code = "relvet201"
	CodeLockFreeRead   diag.Code = "relvet202"
	CodeWalOrder       diag.Code = "relvet203"
	CodeAtomicPublish  diag.Code = "relvet204"
)

// EnginePackages is the closed scope the 2xx plane audits: the packages
// that own published versions, COW structures, and the durability path.
func EnginePackages() []string {
	return []string{
		"./internal/core",
		"./internal/instance",
		"./internal/dstruct",
		"./internal/colblock",
		"./internal/durable",
		"./internal/wal",
	}
}

// EngineCodes returns the 2xx catalogue entries.
func EngineCodes() []lint.Info {
	return []lint.Info{
		{Code: CodeRoleAnnotation, Severity: diag.Error,
			Summary:   "unknown, duplicate, or misplaced //relvet:role annotation",
			Grounding: "the 2xx analyzers trust role annotations to name the sanctioned fork/clone/publish/config/read/cachefill functions; a typo would silently widen or narrow an invariant"},
		{Code: CodeCowWrite, Severity: diag.Error,
			Summary:   "field store into a published relation version outside a fork/clone/config role, or a clone that aliases its source's slice",
			Grounding: "the MVCC contract (PR 7): published versions are immutable; writers mutate only unpublished COW forks (beginVersion/cowSpine/dstruct clones), so a store through a published pointer races every lock-free reader — and a clone that shares its source's word array makes the fork's first unit write exactly such a store"},
		{Code: CodeLockFreeRead, Severity: diag.Error,
			Summary:   "snapshot read path acquires a mutex, writes engine state or enters a writer-side function",
			Grounding: "the lock-free read contract (static twin of mvcc_lockfree_test.go): Query/QueryFunc/QueryRange/Len/ExplainQuery load a published version and must complete even with every writer mutex held by someone else; only role=cachefill may take a non-cell lock. The lineage dictionary is append-only shared state with one writer: readers decode through the header their version captured (colblock.View), never through the role=writer methods that read or grow the live table"},
		{Code: CodeWalOrder, Severity: diag.Error,
			Summary:   "publish not dominated by wal.Append, publish on the append-error path, or discarded append error",
			Grounding: "the WAL-before-publish rule (PR 8): a version may reach readers only after its delta is durable to policy; a hoisted or error-path publish lets a crash lose acknowledged state"},
		{Code: CodeAtomicPublish, Severity: diag.Error,
			Summary:   "published atomic.Pointer stored outside a publish point or copied non-atomically",
			Grounding: "every publish is one atomic store at a role=publish function; copying the pointer cell by value (or storing elsewhere) breaks the single-writer/atomic-reader protocol the MVCC tier rests on"},
	}
}

// EngineAnalyzers returns the 2xx analyzers in code order.
func EngineAnalyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{RoleAnnotation, CowWrite, LockFreeRead, WalOrder, AtomicPublish}
}

// ---- relvet200: the annotation contract ----

// RoleAnnotation audits every //relvet:role marker: the role must be in
// the closed vocabulary, attached to exactly one function declaration's
// doc comment, and not repeated.
var RoleAnnotation = &analysis.Analyzer{
	Name:     "roleannotation",
	Doc:      "unknown, duplicate, or misplaced //relvet:role annotations",
	Code:     CodeRoleAnnotation,
	Severity: diag.Error,
	Run:      runRoleAnnotation,
}

func runRoleAnnotation(pass *analysis.Pass) {
	for _, m := range pass.Prog.Marks {
		if m.Pkg != pass.Pkg {
			continue
		}
		if analysis.ValidRoles[m.Role] == "" {
			pass.Reportf(m.Pos, "unknown //relvet:role %q (valid roles: %s)", m.Role, roleList())
			continue
		}
		if m.Fn == nil {
			pass.Reportf(m.Pos, "//relvet:role=%s is not attached to a function declaration's doc comment; the annotation designates functions only", m.Role)
			continue
		}
		if m.Dup {
			pass.Reportf(m.Pos, "duplicate //relvet:role on %s (already %s); a function carries exactly one role", m.Fn.Name, m.Fn.Role)
		}
	}
}

func roleList() string {
	names := make([]string, 0, len(analysis.ValidRoles))
	for r := range analysis.ValidRoles {
		names = append(names, r)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// ---- relvet201: COW write discipline ----

// CowWrite flags stores into published engine state: any field/element
// store whose base was loaded from the published atomic pointer (or
// returned by a function summarized as returning published state), and
// any call passing published state to a parameter the callee mutates —
// unless the callee holds the fork, clone, or config role.
var CowWrite = &analysis.Analyzer{
	Name:     "cowwrite",
	Doc:      "field stores into published (immutable) relation versions",
	Code:     CodeCowWrite,
	Severity: diag.Error,
	Run:      runCowWrite,
}

func runCowWrite(pass *analysis.Pass) {
	prog := pass.Prog
	for _, fn := range prog.FuncsOf(pass.Pkg) {
		if fn.Role == analysis.RoleClone {
			reportAliasedSlices(pass, fn)
		}
		if analysis.RoleExemptsMutation(fn.Role) {
			continue // fork/clone/config/cachefill bodies are the sanctioned mutators
		}
		eval := prog.Eval(fn)
		pubBase := func(e ast.Expr) bool {
			_, pub := eval(e)
			return pub
		}
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if base, ok := storeBase(lhs); ok && pubBase(base) {
						pass.Reportf(lhs.Pos(), "store into a published relation version: published state is immutable outside //relvet:role=fork/clone (mutate an unpublished beginVersion fork instead)")
					}
				}
			case *ast.IncDecStmt:
				if base, ok := storeBase(n.X); ok && pubBase(base) {
					pass.Reportf(n.X.Pos(), "store into a published relation version: published state is immutable outside //relvet:role=fork/clone (mutate an unpublished beginVersion fork instead)")
				}
			case *ast.CallExpr:
				ci, args := prog.ResolveCall(pass.Pkg, n)
				if ci == nil {
					return true
				}
				if analysis.RoleExemptsMutation(ci.Role) {
					return true
				}
				for j, a := range args {
					if a == nil || j >= len(ci.MutatesParam) || !ci.MutatesParam[j] {
						continue
					}
					if !analysis.Pointerish(pass.Pkg.Info.TypeOf(a)) {
						continue
					}
					if pubBase(a) {
						pass.Reportf(n.Pos(), "passes a published relation version to %s, which mutates it: published state is immutable outside //relvet:role=fork/clone/config", ci.Name)
						break
					}
				}
			}
			return true
		})
	}
}

// reportAliasedSlices flags, inside a role=clone function, a slice field of
// the copy being built that is set to a slice of the source's — a field
// assignment or a composite-literal field whose value is a plain reference
// chain rooted at a parameter. The copy would share the source's backing
// array, and the writes the clone exists to absorb would land in it. A
// struct copied whole (c := *n) shares deliberately, under a flag or token
// the structure checks before writing, and is not this pattern.
func reportAliasedSlices(pass *analysis.Pass, fn *analysis.FuncInfo) {
	eval := pass.Prog.Eval(fn)
	aliases := func(e ast.Expr) bool {
		switch unparenExpr(e).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr:
		default:
			return false // a call (slices.Clone, append, make) builds a fresh array
		}
		if _, ok := pass.Pkg.Info.TypeOf(e).Underlying().(*types.Slice); !ok {
			return false
		}
		idx, _ := eval(e)
		return idx >= 0
	}
	report := func(pos token.Pos, e ast.Expr) {
		pass.Reportf(pos, "clone aliases its source's slice %s: the copy's first write would land in the array a published version still reads; copy it in the clone (slices.Clone)", types.ExprString(e))
	}
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				if _, isField := unparenExpr(lhs).(*ast.SelectorExpr); isField && aliases(n.Rhs[i]) {
					report(n.Rhs[i].Pos(), n.Rhs[i])
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok && aliases(kv.Value) {
					report(kv.Value.Pos(), kv.Value)
				}
			}
		}
		return true
	})
}

// storeBase returns the base expression of a reference-chain store
// target (x in x.f, x[i], *x); plain identifier assignments rebind and
// are not stores.
func storeBase(lhs ast.Expr) (ast.Expr, bool) {
	switch lhs := lhs.(type) {
	case *ast.ParenExpr:
		return storeBase(lhs.X)
	case *ast.SelectorExpr:
		return lhs.X, true
	case *ast.IndexExpr:
		return lhs.X, true
	case *ast.StarExpr:
		return lhs.X, true
	}
	return nil, false
}

// ---- relvet202: lock-free read purity ----

// LockFreeRead walks the call graph from every role=read entry point
// and flags, anywhere in the closure: a mutex acquisition (cell-struct
// mutexes unconditionally; others unless the acquiring function holds
// role=cachefill), any store into engine-state-typed parameters, and
// any role=writer function — the static twin of holding all writer
// locks while running every read.
var LockFreeRead = &analysis.Analyzer{
	Name:     "lockfreeread",
	Doc:      "locks or engine-state writes reachable from snapshot read entry points",
	Code:     CodeLockFreeRead,
	Severity: diag.Error,
	Run:      runLockFreeRead,
}

func runLockFreeRead(pass *analysis.Pass) {
	prog := pass.Prog
	reported := map[token.Pos]bool{}
	for _, root := range prog.FuncsOf(pass.Pkg) {
		if root.Role != analysis.RoleRead {
			continue
		}
		order, parent := prog.Reach(root.Key)
		for _, key := range order {
			fi := prog.Funcs[key]
			if fi == nil {
				continue
			}
			if fi.Role == analysis.RoleWriter && !reported[fi.Decl.Pos()] {
				reported[fi.Decl.Pos()] = true
				pass.Reportf(fi.Decl.Pos(), "writer-side function %s reached on the lock-free read path %s: it touches state only the single writer may (readers go through the header their version captured)", fi.Name, prog.PathTo(parent, key))
			}
			for _, lk := range fi.Locks {
				if !lk.Cell && fi.Role == analysis.RoleCacheFill {
					continue
				}
				if reported[lk.Pos] {
					continue
				}
				reported[lk.Pos] = true
				kind := "mutex"
				if lk.Cell {
					kind = "writer (cell) mutex"
				}
				pass.Reportf(lk.Pos, "%s %s acquired on the lock-free read path %s: snapshot reads must complete even when writers hold every lock (annotate //relvet:role=cachefill only for non-cell memoization locks)", kind, lk.Desc, prog.PathTo(parent, key))
			}
			for _, st := range fi.Stores {
				if !prog.IsEngineState(st.Root) {
					continue
				}
				if reported[st.Pos] {
					continue
				}
				reported[st.Pos] = true
				pass.Reportf(st.Pos, "engine state (%s) written on the lock-free read path %s: reads must not mutate shared engine structures", st.Root.String(), prog.PathTo(parent, key))
			}
		}
	}
}

// ---- relvet203: WAL-before-publish ordering ----

// WalOrder checks every function that both appends to a *wal.Log and
// publishes a version (a call to a role=publish function, or a direct
// atomic store of the published pointer): the first append must precede
// every publish; inside an append-error branch the only legal publish
// is a drop (changed=false to a publish function — the poison-and-drop
// idiom); and the append error must not be discarded.
var WalOrder = &analysis.Analyzer{
	Name:     "walorder",
	Doc:      "wal.Append must dominate the publish; error paths must not publish",
	Code:     CodeWalOrder,
	Severity: diag.Error,
	Run:      runWalOrder,
}

const walLogType = "repro/internal/wal.Log"

func runWalOrder(pass *analysis.Pass) {
	prog := pass.Prog
	info := pass.Pkg.Info
	for _, fn := range prog.FuncsOf(pass.Pkg) {
		var appends []*ast.CallExpr
		type pubEvent struct {
			pos     token.Pos
			direct  bool     // direct atomic Store/Swap/CAS of the published pointer
			changed ast.Expr // the bool "changed" argument of a publish call, if any
			name    string
		}
		var pubs []pubEvent

		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := unparenExpr(call.Fun).(*ast.SelectorExpr); ok {
				if isWalAppend(info, sel) {
					appends = append(appends, call)
					return true
				}
				if isPubStore(info, sel) {
					pubs = append(pubs, pubEvent{pos: call.Pos(), direct: true, name: sel.Sel.Name})
					return true
				}
			}
			if ci, args := prog.ResolveCall(pass.Pkg, call); ci != nil && ci.Role == analysis.RolePublish {
				ev := pubEvent{pos: call.Pos(), name: ci.Name}
				for j := 0; j < ci.NumParams(); j++ {
					if bt, ok := ci.ParamType(j).Underlying().(*types.Basic); ok && bt.Kind() == types.Bool {
						if j < len(args) {
							ev.changed = args[j]
						}
						break
					}
				}
				pubs = append(pubs, ev)
			}
			return true
		})
		if len(appends) == 0 || len(pubs) == 0 {
			continue
		}

		// Rule A: the first append dominates every publish.
		firstAppend := appends[0].Pos()
		for _, a := range appends {
			if a.Pos() < firstAppend {
				firstAppend = a.Pos()
			}
		}
		for _, pv := range pubs {
			if pv.pos >= firstAppend {
				continue
			}
			// A changed=false publish is a drop: it cannot store the fork,
			// so logging order is moot.
			if !pv.direct && isFalseLiteral(pv.changed) {
				continue
			}
			pass.Reportf(pv.pos, "publishes (%s) before the wal.Append: a reader or a crash could observe state the log does not contain (WAL-before-publish, PR 8)", pv.name)
		}

		// Rule B: append-error branches may only drop (changed=false).
		for _, rng := range appendErrorBranches(info, fn.Decl.Body, appends) {
			for _, pv := range pubs {
				if pv.pos < rng.from || pv.pos > rng.to {
					continue
				}
				if pv.direct {
					pass.Reportf(pv.pos, "stores the published pointer on the wal.Append error path: a failed append must drop the fork (publish changed=false), not expose it")
				} else if !isFalseLiteral(pv.changed) {
					pass.Reportf(pv.pos, "publishes with changed!=false on the wal.Append error path: a failed append must drop the fork (publish changed=false), not expose it")
				}
			}
		}

		// Rule C: the append error feeds the publish decision; a
		// publishing function may not discard it.
		for _, a := range appends {
			if appendDiscarded(fn.Decl.Body, a) {
				pass.Reportf(a.Pos(), "discards the wal.Append error in a publishing function: the error decides whether the fork may publish")
			}
		}
	}
}

func isWalAppend(info *types.Info, sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Append" && sel.Sel.Name != "Sync" {
		return false
	}
	t := info.TypeOf(sel.X)
	return t != nil && stripPtrType(t).String() == walLogType
}

func isPubStore(info *types.Info, sel *ast.SelectorExpr) bool {
	switch sel.Sel.Name {
	case "Store", "Swap", "CompareAndSwap":
	default:
		return false
	}
	return analysis.IsPubPointer(info.TypeOf(sel.X))
}

type posRange struct{ from, to token.Pos }

// appendErrorBranches locates `if err := log.Append(...); err != nil`
// bodies (and the split `err = log.Append(...)` / `if err != nil` form)
// for the given append calls.
func appendErrorBranches(info *types.Info, body *ast.BlockStmt, appends []*ast.CallExpr) []posRange {
	isAppend := func(e ast.Expr) bool {
		for _, a := range appends {
			if unparenExpr(e) == a {
				return true
			}
		}
		return false
	}
	condIdent := func(cond ast.Expr) *ast.Ident {
		be, ok := unparenExpr(cond).(*ast.BinaryExpr)
		if !ok || be.Op != token.NEQ {
			return nil
		}
		id, ok := unparenExpr(be.X).(*ast.Ident)
		if !ok {
			return nil
		}
		if nl, ok := unparenExpr(be.Y).(*ast.Ident); !ok || nl.Name != "nil" {
			return nil
		}
		return id
	}
	assignsFromAppend := func(st ast.Stmt) *ast.Ident {
		as, ok := st.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || !isAppend(as.Rhs[0]) {
			return nil
		}
		for _, lhs := range as.Lhs {
			if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
				return id
			}
		}
		return nil
	}
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		blk, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		var pending *ast.Ident
		for _, st := range blk.List {
			ifs, ok := st.(*ast.IfStmt)
			if !ok {
				if id := assignsFromAppend(st); id != nil {
					pending = id
				} else {
					pending = nil
				}
				continue
			}
			var bound *ast.Ident
			if ifs.Init != nil {
				bound = assignsFromAppend(ifs.Init)
			} else if pending != nil {
				bound = pending
			}
			pending = nil
			if bound == nil {
				continue
			}
			if ci := condIdent(ifs.Cond); ci != nil && info.ObjectOf(ci) == info.ObjectOf(bound) {
				out = append(out, posRange{ifs.Body.Pos(), ifs.Body.End()})
			}
		}
		return true
	})
	return out
}

// appendDiscarded reports whether the append call's error result is
// thrown away: a bare expression statement or an all-blank assignment.
func appendDiscarded(body *ast.BlockStmt, call *ast.CallExpr) bool {
	discarded := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if unparenExpr(n.X) == call {
				discarded = true
			}
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && unparenExpr(n.Rhs[0]) == call {
				all := true
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
						all = false
					}
				}
				if all {
					discarded = true
				}
			}
		}
		return !discarded
	})
	return discarded
}

func isFalseLiteral(e ast.Expr) bool {
	if e == nil {
		return false
	}
	id, ok := unparenExpr(e).(*ast.Ident)
	return ok && id.Name == "false"
}

// ---- relvet204: atomic publish protocol ----

// AtomicPublish restricts use of the published atomic.Pointer cell:
// Store/Swap/CompareAndSwap only inside role=publish functions, and the
// cell value itself may appear only as the receiver of an atomic method
// call or under & (passing its address) — never copied or dereferenced
// as a plain value.
var AtomicPublish = &analysis.Analyzer{
	Name:     "atomicpublish",
	Doc:      "published atomic.Pointer stored outside publish points or used non-atomically",
	Code:     CodeAtomicPublish,
	Severity: diag.Error,
	Run:      runAtomicPublish,
}

func runAtomicPublish(pass *analysis.Pass) {
	prog := pass.Prog
	info := pass.Pkg.Info
	for _, fn := range prog.FuncsOf(pass.Pkg) {
		// allowed marks pointer-cell expressions in sanctioned
		// positions: atomic method receivers and address-of operands.
		allowed := map[ast.Expr]bool{}
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := unparenExpr(n.Fun).(*ast.SelectorExpr); ok {
					if analysis.IsPubPointer(info.TypeOf(sel.X)) {
						switch sel.Sel.Name {
						case "Load":
							allowed[unparenExpr(sel.X)] = true
						case "Store", "Swap", "CompareAndSwap":
							allowed[unparenExpr(sel.X)] = true
							if fn.Role != analysis.RolePublish {
								pass.Reportf(n.Pos(), "%s on the published pointer outside a //relvet:role=publish function: every publish is one atomic store at an annotated publish point", sel.Sel.Name)
							}
						}
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND && analysis.IsPubPointer(info.TypeOf(n.X)) {
					allowed[unparenExpr(n.X)] = true
				}
			}
			return true
		})
		// skip holds selector Sel identifiers: the field name of x.cur
		// types as the cell, but the use is judged at the selector node.
		skip := map[*ast.Ident]bool{}
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				skip[sel.Sel] = true
			}
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			if id, ok := e.(*ast.Ident); ok && skip[id] {
				return true
			}
			t := info.TypeOf(e)
			if t == nil {
				return true
			}
			if _, isPtr := t.(*types.Pointer); isPtr {
				return true // *atomic.Pointer handles are fine to pass around
			}
			if !analysis.IsPubPointer(t) {
				return true
			}
			if allowed[unparenExpr(e)] {
				return false // sanctioned position; the subtree is its spelling
			}
			switch e.(type) {
			case *ast.ParenExpr:
				return true
			}
			pass.Reportf(e.Pos(), "published atomic.Pointer used as a plain value: the cell may only be Loaded, Stored at a publish point, or passed by address (copying it forks the publication protocol)")
			return false
		})
	}
}

func unparenExpr(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

func stripPtrType(t types.Type) types.Type {
	for {
		pt, ok := t.(*types.Pointer)
		if !ok {
			return t
		}
		t = pt.Elem()
	}
}
