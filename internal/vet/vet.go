// Package vet holds the relvet1xx analyzers: checks over Go client code
// and generated code that uses the relation engine. They run on the
// stdlib-only framework of internal/analysis and report the misuse
// patterns the engine's API makes easy: discarding mutation errors,
// swallowing poisoning, reading query results or pinned MVCC snapshot
// handles across mutations, and under-specified option literals.
// relvet105 — the codegen cleanliness
// contract — is not an AST analyzer; cmd/relvet's -gen mode and the
// codegen golden test enforce it, and it is catalogued here so the code
// space is documented in one place.
package vet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/diag"
	"repro/internal/lint"
)

// The Go-plane codes.
const (
	CodeUncheckedMut     diag.Code = "relvet101" // mutation error discarded
	CodeSwallowedPoison  diag.Code = "relvet102" // empty ErrPoisoned/PanicError branch
	CodeStaleResults     diag.Code = "relvet103" // query results read across a mutation
	CodeOptionsMisuse    diag.Code = "relvet104" // options literal missing required fields
	CodeDirtyCodegen     diag.Code = "relvet105" // generated code not gofmt/analyzer clean
	CodeStaleSnapshot    diag.Code = "relvet106" // pinned snapshot handle read across its own mutation
	CodeUnsyncedDurable  diag.Code = "relvet107" // durable relation mutated, never closed or synced
	CodeUnclosedFollower diag.Code = "relvet108" // replication follower bound, never closed
)

// Codes returns the Go-plane catalogue, in the same Info currency as the
// decomposition plane so cmd/relvet -codes renders both uniformly.
func Codes() []lint.Info {
	return []lint.Info{
		{Code: CodeUncheckedMut, Severity: diag.Error,
			Summary:   "mutation error discarded (Insert/Remove/Update/Upsert and generated variants)",
			Grounding: "mutations are partial: they reject FD violations (§3.4) and report rollback poisoning; a discarded error hides both"},
		{Code: CodeSwallowedPoison, Severity: diag.Warning,
			Summary:   "ErrPoisoned or *core.PanicError detected, then ignored in an empty branch",
			Grounding: "poisoning marks a relation whose undo-log rollback failed — state may be torn; acknowledging it without acting on it defeats the containment plane"},
		{Code: CodeStaleResults, Severity: diag.Warning,
			Summary:   "query results read after a mutation of the same relation",
			Grounding: "query plans (§4) read the live decomposition; returned slices are snapshots and do not see later mutations, so reads after a mutation are at best stale"},
		{Code: CodeOptionsMisuse, Severity: diag.Error,
			Summary:   "codegen.Options without Package, or core.ShardOptions without ShardKey",
			Grounding: "codegen.Generate and core.NewSharded reject these at run time; the literal is statically decidable"},
		{Code: CodeDirtyCodegen, Severity: diag.Error,
			Summary:   "generated code is not gofmt-idempotent or fails the relvet analyzers",
			Grounding: "the §6 compiler contract: RELC output must hold to the same bar as hand-written client code (enforced by cmd/relvet -gen and the codegen golden test)"},
		{Code: CodeStaleSnapshot, Severity: diag.Warning,
			Summary:   "pinned snapshot handle (Snapshot()/Shard()) read after a mutation of its relation",
			Grounding: "MVCC reads run against an immutable published version; a handle pinned before a mutation never observes it — re-acquire the handle (or query the relation) for fresh data"},
		{Code: CodeUnsyncedDurable, Severity: diag.Warning,
			Summary:   "durable relation mutated but never closed or synced in the function that opened it",
			Grounding: "under SyncInterval/SyncOff a mutation is acknowledged before its WAL record reaches disk; only Close or Sync force the flush, so a handle abandoned after mutating can silently lose acknowledged commits on a crash"},
		{Code: CodeUnclosedFollower, Severity: diag.Warning,
			Summary:   "replication follower created but never closed in the function that created it",
			Grounding: "repl.NewFollower starts a session goroutine that dials and redials until Close; a dropped handle leaks the goroutine and its connection, and keeps resubscribing to the publisher forever"},
	}
}

// Analyzers returns the AST analyzers of the suite.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{UncheckedMut, SwallowedPoison, StaleResults, OptionsMisuse, StaleSnapshot, UnsyncedDurable, UnclosedFollower}
}

// relTypeNames are the engine types whose methods the analyzers treat as
// relation operations — the core engine tiers and the type every
// generated package declares.
var relTypeNames = map[string]bool{
	"Relation":        true,
	"SyncRelation":    true,
	"ShardedRelation": true,
	"DurableRelation": true,
}

// mutPrefixes match mutation method names on those types, both the core
// set (Insert, Remove, Update, Upsert, InsertBatch) and the
// generated variants (RemoveByNs, UpdateByNsPidSetState, …).
var mutPrefixes = []string{"Insert", "Remove", "Update", "Upsert"}

func isMutName(name string) bool {
	for _, p := range mutPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// relMethodCall inspects a call expression and, when it is a method call
// on one of the relation types, returns the receiver expression and the
// method name.
func relMethodCall(pass *analysis.Pass, call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	tv, found := pass.Pkg.Info.Types[sel.X]
	if !found || !isRelType(tv.Type) {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

func isRelType(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && relTypeNames[n.Obj().Name()]
}

// returnsError reports whether the call's (possibly multi-value) result
// ends in an error.
func returnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	sig, ok := pass.Pkg.Info.Types[call.Fun].Type.(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	return last.String() == "error"
}

// UncheckedMut (relvet101) flags statements that call a mutation on a
// relation and discard its result: plain expression statements, go
// statements, and defers.
var UncheckedMut = &analysis.Analyzer{
	Name:     "uncheckedmut",
	Doc:      "flags relation mutations whose error result is discarded",
	Code:     CodeUncheckedMut,
	Severity: diag.Error,
	Run: func(pass *analysis.Pass) {
		check := func(call *ast.CallExpr) {
			if _, method, ok := relMethodCall(pass, call); ok && isMutName(method) && returnsError(pass, call) {
				pass.Reportf(call.Pos(),
					"result of %s discarded: mutations report FD violations and poisoning through their error", method)
			}
		}
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						check(call)
					}
				case *ast.GoStmt:
					check(n.Call)
				case *ast.DeferStmt:
					check(n.Call)
				}
				return true
			})
		}
	},
}

// SwallowedPoison (relvet102) flags if-statements that detect poisoning —
// errors.Is(err, ErrPoisoned), err == ErrPoisoned, or errors.As into a
// *PanicError — and then do nothing in an empty body.
var SwallowedPoison = &analysis.Analyzer{
	Name:     "swallowedpoison",
	Doc:      "flags empty branches that detect and then ignore poisoning",
	Code:     CodeSwallowedPoison,
	Severity: diag.Warning,
	Run: func(pass *analysis.Pass) {
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				ifs, ok := n.(*ast.IfStmt)
				if !ok || len(ifs.Body.List) != 0 {
					return true
				}
				if what := poisonCheck(pass, ifs.Cond); what != "" {
					pass.Reportf(ifs.Pos(),
						"%s detected and then ignored: the relation may be torn — handle it (rebuild, drop, or surface the error)", what)
				}
				return true
			})
		}
	},
}

// poisonCheck classifies a condition as a poisoning test, returning a
// description or "".
func poisonCheck(pass *analysis.Pass, cond ast.Expr) string {
	found := ""
	ast.Inspect(cond, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.EQL && (isErrPoisoned(n.X) || isErrPoisoned(n.Y)) {
				found = "ErrPoisoned"
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || len(n.Args) != 2 {
				return true
			}
			switch sel.Sel.Name {
			case "Is":
				if isErrPoisoned(n.Args[1]) {
					found = "ErrPoisoned"
				}
			case "As":
				if tv, ok := pass.Pkg.Info.Types[n.Args[1]]; ok && isPanicErrorPtr(tv.Type) {
					found = "*PanicError"
				}
			}
		}
		return true
	})
	return found
}

func isErrPoisoned(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return e.Sel.Name == "ErrPoisoned"
	case *ast.Ident:
		return e.Name == "ErrPoisoned"
	}
	return false
}

func isPanicErrorPtr(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "PanicError"
}

// StaleResults (relvet103) flags reads of a query-result variable after a
// mutation of the relation it was queried from. The analysis is
// position-ordered within one function body — flow-insensitive on
// purpose: a read that is even *sometimes* downstream of the mutation
// deserves a look.
var StaleResults = &analysis.Analyzer{
	Name:     "staleresults",
	Doc:      "flags query results read after a mutation of the same relation",
	Code:     CodeStaleResults,
	Severity: diag.Warning,
	Run: func(pass *analysis.Pass) {
		forEachFuncBody(pass, func(body *ast.BlockStmt) {
			pinnedAcrossMutation(pass, body,
				func(method string) bool { return strings.HasPrefix(method, "Query") || method == "All" },
				func(obj types.Object) bool {
					_, isSlice := obj.Type().Underlying().(*types.Slice)
					return isSlice
				},
				func(pos token.Pos, name string, mutLine int) {
					pass.Reportf(pos,
						"%s read after the relation was mutated at line %d: query results are snapshots and do not reflect the mutation", name, mutLine)
				})
		})
	},
}

// StaleSnapshot (relvet106) is the MVCC sibling of relvet103: it flags
// uses of a pinned snapshot handle — the *core.Relation returned by
// SyncRelation.Snapshot or ShardedRelation.Shard — after a later mutation
// of the relation it was pinned from. The handle is an immutable published
// version; it will never observe the mutation, so code that re-reads it
// expecting fresh data is wrong by construction. Same position-ordered,
// flow-insensitive analysis as relvet103.
var StaleSnapshot = &analysis.Analyzer{
	Name:     "stalesnapshot",
	Doc:      "flags pinned snapshot handles read after a mutation of their relation",
	Code:     CodeStaleSnapshot,
	Severity: diag.Warning,
	Run: func(pass *analysis.Pass) {
		forEachFuncBody(pass, func(body *ast.BlockStmt) {
			pinnedAcrossMutation(pass, body,
				func(method string) bool { return method == "Snapshot" || method == "Shard" },
				func(obj types.Object) bool { return isRelType(obj.Type()) },
				func(pos token.Pos, name string, mutLine int) {
					pass.Reportf(pos,
						"%s is a snapshot pinned before the mutation at line %d and will never observe it: re-acquire the handle (or query the relation) for fresh data", name, mutLine)
				})
		})
	},
}

func forEachFuncBody(pass *analysis.Pass, fn func(*ast.BlockStmt)) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Body != nil {
				fn(d.Body)
			}
		}
	}
}

// pinnedAcrossMutation is the shared engine of relvet103 and relvet106:
// within one function body it tracks variables bound from a
// handle-producing relation method call (pins selects the methods, keep
// the assigned types worth tracking), records every mutation of each
// relation variable, and reports — via report, with the mutation's line —
// every use of a tracked handle whose binding assignment precedes a
// mutation of its origin relation that precedes the use.
func pinnedAcrossMutation(pass *analysis.Pass, body *ast.BlockStmt,
	pins func(method string) bool,
	keep func(obj types.Object) bool,
	report func(pos token.Pos, name string, mutLine int)) {
	info := pass.Pkg.Info
	type assign struct {
		recv types.Object
		pos  token.Pos
	}
	handles := map[types.Object][]assign{} // handle var → assignments, in order
	muts := map[types.Object][]token.Pos{} // relation var → mutation end positions
	lhsWrite := map[token.Pos]bool{}       // positions of plain-`=` LHS idents: writes, not reads

	rootObj := func(e ast.Expr) types.Object {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.SelectorExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.Ident:
				if o := info.Uses[x]; o != nil {
					return o
				}
				return info.Defs[x]
			default:
				return nil
			}
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					lhsWrite[id.Pos()] = true
				}
			}
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, method, ok := relMethodCall(pass, call)
			if !ok || !pins(method) {
				return true
			}
			ro := rootObj(recv)
			if ro == nil {
				return true
			}
			for _, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil {
					continue
				}
				if keep(obj) {
					handles[obj] = append(handles[obj], assign{recv: ro, pos: n.Pos()})
				}
			}
		case *ast.CallExpr:
			if recv, method, ok := relMethodCall(pass, n); ok && isMutName(method) {
				if ro := rootObj(recv); ro != nil {
					// Use End, not Pos: arguments of the mutation itself are
					// evaluated before it runs and are not stale.
					muts[ro] = append(muts[ro], n.End())
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || lhsWrite[id.Pos()] {
			return true
		}
		obj := info.Uses[id]
		assigns, tracked := handles[obj]
		if !tracked {
			return true
		}
		// The binding assignment in effect at this use.
		var cur *assign
		for i := range assigns {
			if assigns[i].pos < id.Pos() {
				cur = &assigns[i]
			}
		}
		if cur == nil {
			return true
		}
		for _, m := range muts[cur.recv] {
			if cur.pos < m && m < id.Pos() {
				report(id.Pos(), id.Name, pass.Pkg.Fset.Position(m).Line)
				return true
			}
		}
		return true
	})
}

// UnsyncedDurable (relvet107) flags a durable relation that a function
// opens (binds from any call returning *core.DurableRelation — typically
// durable.Open or core.NewDurable), mutates, and
// then abandons: no Close, Sync, or Checkpoint on the handle anywhere in
// the function, including deferred calls and closures. Handles that
// escape — returned, passed to another function, stored — are the
// caller's responsibility and stay silent, as do handles the function
// only queries.
var UnsyncedDurable = &analysis.Analyzer{
	Name:     "unsynceddurable",
	Doc:      "flags durable relations mutated but never closed or synced",
	Code:     CodeUnsyncedDurable,
	Severity: diag.Warning,
	Run: func(pass *analysis.Pass) {
		forEachFuncBody(pass, func(body *ast.BlockStmt) {
			info := pass.Pkg.Info
			type durVar struct {
				name    string
				bindPos token.Pos
				mutLine int  // line of the first mutation, 0 when never mutated
				settled bool // Close/Sync/Checkpoint reachable in this body
				escapes bool // handed off: lifecycle is someone else's
			}
			vars := map[types.Object]*durVar{}
			var order []*durVar             // binding order, for deterministic reports
			recvUse := map[token.Pos]bool{} // ident positions used as method receivers
			lhsUse := map[token.Pos]bool{}  // ident positions written on an assignment LHS

			ast.Inspect(body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							lhsUse[id.Pos()] = true
						}
					}
					if len(n.Rhs) != 1 {
						return true
					}
					if _, ok := n.Rhs[0].(*ast.CallExpr); !ok {
						return true
					}
					for _, lhs := range n.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok || id.Name == "_" {
							continue
						}
						obj := info.Defs[id]
						if obj == nil {
							obj = info.Uses[id]
						}
						if obj != nil && isDurableType(obj.Type()) && vars[obj] == nil {
							vars[obj] = &durVar{name: id.Name, bindPos: n.Pos()}
							order = append(order, vars[obj])
						}
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					id, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					v := vars[info.Uses[id]]
					if v == nil {
						return true
					}
					recvUse[id.Pos()] = true
					switch {
					case isMutName(sel.Sel.Name):
						if v.mutLine == 0 {
							v.mutLine = pass.Pkg.Fset.Position(n.Pos()).Line
						}
					case sel.Sel.Name == "Close" || sel.Sel.Name == "Sync" || sel.Sel.Name == "Checkpoint":
						v.settled = true
					}
				}
				return true
			})

			// Any remaining use of the handle — an argument, a return
			// value, a plain assignment — hands it off.
			ast.Inspect(body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || recvUse[id.Pos()] || lhsUse[id.Pos()] {
					return true
				}
				if v := vars[info.Uses[id]]; v != nil {
					v.escapes = true
				}
				return true
			})

			for _, v := range order {
				if v.mutLine != 0 && !v.settled && !v.escapes {
					pass.Reportf(v.bindPos,
						"durable relation %s is mutated (line %d) but never closed or synced: buffered WAL records are lost if the handle is dropped — call Close (or Sync) before it goes out of scope", v.name, v.mutLine)
				}
			}
		})
	},
}

func isDurableType(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "DurableRelation"
}

// UnclosedFollower (relvet108) flags a replication follower that a
// function binds (from any call returning *repl.Follower — typically
// repl.NewFollower) and then drops: no Close on the handle anywhere in
// the function, including deferred calls and closures. Unlike relvet107
// there is no mutation requirement — a follower runs its session
// goroutine from the moment it is constructed, so even a handle that is
// only ever queried (or never touched at all) leaks the goroutine and
// its connection when abandoned. Handles that escape — returned, passed
// to another function, stored — are the caller's responsibility and stay
// silent, as are parameters the function did not create.
var UnclosedFollower = &analysis.Analyzer{
	Name:     "unclosedfollower",
	Doc:      "flags replication followers created but never closed",
	Code:     CodeUnclosedFollower,
	Severity: diag.Warning,
	Run: func(pass *analysis.Pass) {
		forEachFuncBody(pass, func(body *ast.BlockStmt) {
			info := pass.Pkg.Info
			type folVar struct {
				name    string
				bindPos token.Pos
				closed  bool // Close reachable in this body
				escapes bool // handed off: lifecycle is someone else's
			}
			vars := map[types.Object]*folVar{}
			var order []*folVar             // binding order, for deterministic reports
			recvUse := map[token.Pos]bool{} // ident positions used as method receivers
			lhsUse := map[token.Pos]bool{}  // ident positions written on an assignment LHS

			ast.Inspect(body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							lhsUse[id.Pos()] = true
						}
					}
					if len(n.Rhs) != 1 {
						return true
					}
					if _, ok := n.Rhs[0].(*ast.CallExpr); !ok {
						return true
					}
					for _, lhs := range n.Lhs {
						id, ok := lhs.(*ast.Ident)
						if !ok || id.Name == "_" {
							continue
						}
						obj := info.Defs[id]
						if obj == nil {
							obj = info.Uses[id]
						}
						if obj != nil && isFollowerType(obj.Type()) && vars[obj] == nil {
							vars[obj] = &folVar{name: id.Name, bindPos: n.Pos()}
							order = append(order, vars[obj])
						}
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					id, ok := sel.X.(*ast.Ident)
					if !ok {
						return true
					}
					v := vars[info.Uses[id]]
					if v == nil {
						return true
					}
					recvUse[id.Pos()] = true
					if sel.Sel.Name == "Close" {
						v.closed = true
					}
				}
				return true
			})

			// Any remaining use of the handle — an argument, a return
			// value, a plain assignment — hands it off.
			ast.Inspect(body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || recvUse[id.Pos()] || lhsUse[id.Pos()] {
					return true
				}
				if v := vars[info.Uses[id]]; v != nil {
					v.escapes = true
				}
				return true
			})

			for _, v := range order {
				if !v.closed && !v.escapes {
					pass.Reportf(v.bindPos,
						"follower %s is never closed: its session goroutine keeps dialing and applying until Close — call Close (or defer it) before the handle goes out of scope", v.name)
				}
			}
		})
	},
}

func isFollowerType(t types.Type) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == "Follower" &&
		n.Obj().Pkg() != nil && strings.HasSuffix(n.Obj().Pkg().Path(), "internal/repl")
}

// OptionsMisuse (relvet104) flags keyed options literals missing the
// fields their consumers reject at run time: codegen.Options without
// Package, core.ShardOptions without ShardKey.
var OptionsMisuse = &analysis.Analyzer{
	Name:     "optmisuse",
	Doc:      "flags options literals missing statically required fields",
	Code:     CodeOptionsMisuse,
	Severity: diag.Error,
	Run: func(pass *analysis.Pass) {
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				tv, ok := pass.Pkg.Info.Types[lit]
				if !ok {
					return true
				}
				named, ok := tv.Type.(*types.Named)
				if !ok {
					return true
				}
				var needField, consumer string
				switch {
				case named.Obj().Name() == "Options" && strings.HasSuffix(named.Obj().Pkg().Path(), "internal/codegen"):
					needField, consumer = "Package", "codegen.Generate"
				case named.Obj().Name() == "ShardOptions" && strings.HasSuffix(named.Obj().Pkg().Path(), "internal/core"):
					needField, consumer = "ShardKey", "core.NewSharded"
				default:
					return true
				}
				if len(lit.Elts) > 0 {
					if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
						return true // positional literal names every field
					}
				}
				for _, e := range lit.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && id.Name == needField {
							return true
						}
					}
				}
				pass.Reportf(lit.Pos(), "%s literal without %s: %s rejects it at run time",
					named.Obj().Name(), needField, consumer)
				return true
			})
		}
	},
}
