package analysis

// Interprocedural support for the relvet 2xx engine-invariant plane: a
// whole-program registry of function summaries and a call graph, built
// once per Run over every loaded package. The layer is deliberately
// lightweight — go/ast plus go/types, no SSA — and errs toward false
// negatives: facts it cannot resolve (interface dispatch, function
// values, calls into packages outside the load set) are treated as
// opaque. The 2xx analyzers compensate by checking a closed engine
// scope whose sanctioned escape hatches are explicit //relvet:role
// annotations.
//
// Role annotations are directive comments attached to a function
// declaration's doc comment:
//
//	//relvet:role=fork
//	func (r *Relation) beginVersion() *Relation { ... }
//
// The vocabulary is closed (unknown roles are rejected by relvet200):
//
//	fork      sanctioned COW fork constructor: its result is a fresh
//	          unpublished version, never treated as published state
//	clone     sanctioned structure-sharing copy (dstruct persistent
//	          clones, instance cowNode/cowSpine)
//	publish   may store the published atomic.Pointer
//	config    pre-share configuration: may mutate a published value
//	          under the documented "configure before sharing" contract
//	read      snapshot read entry point; roots the relvet202 walk
//	cachefill may take a non-cell mutex on the read path (memoization
//	          that readers tolerate, e.g. plan-cache fill)
//	writer    runs on a lineage's single serialized writer only: it
//	          reads or appends state that lock-free readers must reach
//	          through a captured header instead (the lineage dictionary,
//	          colblock.Dict); relvet202 rejects any path to it from a
//	          read root

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Role vocabulary. ValidRoles maps each role to a one-line description
// used in diagnostics and the catalogue.
const (
	RoleFork      = "fork"
	RoleClone     = "clone"
	RolePublish   = "publish"
	RoleConfig    = "config"
	RoleRead      = "read"
	RoleCacheFill = "cachefill"
	RoleWriter    = "writer"
)

// ValidRoles is the closed annotation vocabulary.
var ValidRoles = map[string]string{
	RoleFork:      "COW fork constructor; its result is unpublished",
	RoleClone:     "structure-sharing copy on the COW path",
	RolePublish:   "may store the published atomic pointer",
	RoleConfig:    "pre-share configuration of a published value",
	RoleRead:      "snapshot read entry point (relvet202 root)",
	RoleCacheFill: "sanctioned read-path memoization: may mutate its receiver and take a non-cell mutex",
	RoleWriter:    "single-writer side only: unreachable from snapshot read entry points",
}

// RoleExemptsMutation reports whether a role sanctions the function's
// own mutations, so they neither propagate into caller summaries nor
// count as COW violations when handed published state.
func RoleExemptsMutation(role string) bool {
	switch role {
	case RoleFork, RoleClone, RoleConfig, RoleCacheFill:
		return true
	}
	return false
}

const roleMarker = "//relvet:role="

// pubPointerType is the printed type of the engine's published version
// pointer. Everything the 2xx plane protects hangs off this type.
const pubPointerType = "sync/atomic.Pointer[repro/internal/core.Relation]"

// engineSeedTypes are the named types seeding the engine-state closure
// (cell structs — named structs holding a published pointer — are added
// structurally).
var engineSeedTypes = []string{
	"repro/internal/core.Relation",
	"repro/internal/instance.Instance",
	"repro/internal/colblock.Dict",
}

// RoleMark is one //relvet:role annotation found in source, valid or
// not; relvet200 audits the list.
type RoleMark struct {
	Role string    // the text after "=", first field
	Pos  token.Pos // position of the comment
	Pkg  *Package  // package the comment appears in
	Fn   *FuncInfo // function it annotates; nil if not a FuncDecl doc
	Dup  bool      // a second role mark on the same function
}

// CallSite is one statically resolved call edge.
type CallSite struct {
	Callee string // FullName key into Program.Funcs
	Pos    token.Pos
}

// LockSite is a direct sync.Mutex/RWMutex acquisition inside a function.
type LockSite struct {
	Pos  token.Pos
	Cell bool   // the mutex is a field of a cell struct (holds the published pointer)
	Desc string // rendered receiver expression, e.g. "pc.mu"
}

// StoreSite is a direct store through a reference chain rooted at a
// parameter (or receiver), recorded with the parameter's type so
// analyzers can filter for engine state.
type StoreSite struct {
	Pos      token.Pos
	ParamIdx int
	Root     types.Type // type of the rooted parameter
}

// FuncInfo is the per-function summary node of the program.
type FuncInfo struct {
	Key  string // types.Func FullName — stable across packages
	Name string // short display name, e.g. "(*SyncRelation).Query"
	Pkg  *Package
	Decl *ast.FuncDecl
	Role string // "" when unannotated

	// params is receiver (if any) followed by the declared parameters;
	// all summary indices are into this slice.
	params []*types.Var

	// MutatesParam[i] reports that calling the function may store
	// through the reference chain of parameter i (directly or via a
	// callee). MutPos[i] is a representative site.
	MutatesParam []bool
	MutPos       []token.Pos

	// ReturnsPublished reports that some result is engine state loaded
	// from a published pointer; ReturnsParam[i] that some result
	// aliases parameter i. Both are forced false for fork/clone roles:
	// their results are fresh versions by contract.
	ReturnsPublished bool
	ReturnsParam     []bool

	Calls  []CallSite
	Locks  []LockSite
	Stores []StoreSite
}

// NumParams returns the summary arity (receiver included).
func (f *FuncInfo) NumParams() int { return len(f.params) }

// ParamType returns the declared type of summary parameter i.
func (f *FuncInfo) ParamType(i int) types.Type { return f.params[i].Type() }

// Program is the whole-program index over one Load set.
type Program struct {
	Pkgs   []*Package
	Funcs  map[string]*FuncInfo
	Marks  []RoleMark
	byDecl map[*ast.FuncDecl]*FuncInfo

	cellStructs map[string]bool // named structs containing a published pointer field
	engineState map[string]bool // closure over engineSeedTypes + cell structs
}

// BuildProgram indexes every function declaration in pkgs, attaches
// role annotations, and computes summaries to a fixpoint.
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:   pkgs,
		Funcs:  make(map[string]*FuncInfo),
		byDecl: make(map[*ast.FuncDecl]*FuncInfo),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{
					Key:  obj.FullName(),
					Name: shortName(obj),
					Pkg:  pkg,
					Decl: fd,
				}
				sig := obj.Type().(*types.Signature)
				if r := sig.Recv(); r != nil {
					fi.params = append(fi.params, r)
				}
				for i := 0; i < sig.Params().Len(); i++ {
					fi.params = append(fi.params, sig.Params().At(i))
				}
				fi.MutatesParam = make([]bool, len(fi.params))
				fi.MutPos = make([]token.Pos, len(fi.params))
				fi.ReturnsParam = make([]bool, len(fi.params))
				p.Funcs[fi.Key] = fi
				p.byDecl[fd] = fi
			}
		}
	}
	p.collectMarks()
	p.buildTypeSets()

	// Direct facts first (role- and summary-independent), then the
	// summary fixpoint. The round cap bounds pathological call chains;
	// real summaries converge in a handful of rounds.
	for _, fi := range p.sortedFuncs() {
		p.collectFacts(fi)
	}
	for round := 0; round < 16; round++ {
		changed := false
		for _, fi := range p.sortedFuncs() {
			if p.updateSummaries(fi) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return p
}

// FuncOf returns the summary for a declaration in the program, or nil.
func (p *Program) FuncOf(decl *ast.FuncDecl) *FuncInfo { return p.byDecl[decl] }

// FuncsOf returns the package's functions in source order.
func (p *Program) FuncsOf(pkg *Package) []*FuncInfo {
	var out []*FuncInfo
	for _, fi := range p.Funcs {
		if fi.Pkg == pkg {
			out = append(out, fi)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Decl.Pos() < out[j].Decl.Pos() })
	return out
}

func (p *Program) sortedFuncs() []*FuncInfo {
	out := make([]*FuncInfo, 0, len(p.Funcs))
	for _, fi := range p.Funcs {
		out = append(out, fi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// IsPubPointer reports whether t (pointers stripped) is the published
// atomic.Pointer[core.Relation] type.
func IsPubPointer(t types.Type) bool {
	return t != nil && stripPtr(t).String() == pubPointerType
}

// IsCellStruct reports whether t (pointers stripped) is a named struct
// holding a published pointer field — a "cell" in engine terms
// (core's cell, wrappers in fixtures, ...).
func (p *Program) IsCellStruct(t types.Type) bool {
	if t == nil {
		return false
	}
	return p.cellStructs[stripPtr(t).String()]
}

// IsEngineState reports whether t (pointers stripped) belongs to the
// engine-state closure: a published version, an instance, a cell
// struct, or a named struct that transitively embeds one.
func (p *Program) IsEngineState(t types.Type) bool {
	if t == nil {
		return false
	}
	return p.engineState[stripPtr(t).String()]
}

// Pointerish reports whether values of t have reference semantics —
// assigning or passing one aliases rather than copies the underlying
// state.
func Pointerish(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Map, *types.Slice, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// Reach walks the call graph from root, returning reachable function
// keys in BFS order (root first) and the parent edge of each for path
// reporting.
func (p *Program) Reach(root string) (order []string, parent map[string]string) {
	parent = make(map[string]string)
	seen := map[string]bool{root: true}
	queue := []string{root}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		order = append(order, key)
		fi := p.Funcs[key]
		if fi == nil {
			continue
		}
		for _, c := range fi.Calls {
			if seen[c.Callee] || p.Funcs[c.Callee] == nil {
				continue
			}
			seen[c.Callee] = true
			parent[c.Callee] = key
			queue = append(queue, c.Callee)
		}
	}
	return order, parent
}

// PathTo renders the call chain root → ... → key using parent links
// from Reach, as short display names joined by arrows.
func (p *Program) PathTo(parent map[string]string, key string) string {
	var chain []string
	for cur := key; cur != ""; cur = parent[cur] {
		name := cur
		if fi := p.Funcs[cur]; fi != nil {
			name = fi.Name
		}
		chain = append(chain, name)
		if parent[cur] == "" {
			break
		}
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return strings.Join(chain, " -> ")
}

// ResolveCall resolves a call expression to its summary and the aligned
// argument list (index 0 = receiver for methods; nil entries where no
// expression maps, e.g. an unresolvable receiver). Returns nil when the
// callee is dynamic or outside the program.
func (p *Program) ResolveCall(pkg *Package, call *ast.CallExpr) (*FuncInfo, []ast.Expr) {
	obj, recv := calleeOf(pkg, call)
	if obj == nil {
		return nil, nil
	}
	fi := p.Funcs[obj.FullName()]
	if fi == nil {
		return nil, nil
	}
	args := make([]ast.Expr, len(fi.params))
	i := 0
	if fi.Decl.Recv != nil {
		if recv == nil {
			// Method expression or other exotic form; treat all
			// argument positions as unresolved.
			return fi, args
		}
		args[0] = recv
		i = 1
	}
	for _, a := range call.Args {
		if i >= len(args) {
			// Extra variadic arguments collapse onto the last slot;
			// keep the first one as representative.
			break
		}
		args[i] = a
		i++
	}
	return fi, args
}

// calleeOf resolves the static callee of call, along with the receiver
// expression for method calls (nil for plain or package-qualified
// functions). Generic instantiations resolve to their origin so keys
// match the declaration side.
func calleeOf(pkg *Package, call *ast.CallExpr) (*types.Func, ast.Expr) {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pkg.Info.Uses[fun].(*types.Func); ok {
			return fn.Origin(), nil
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn.Origin(), fun.X
			}
			return nil, nil
		}
		// Package-qualified: uses of the Sel ident.
		if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin(), nil
		}
	}
	return nil, nil
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

func stripPtr(t types.Type) types.Type {
	for {
		pt, ok := t.(*types.Pointer)
		if !ok {
			return t
		}
		t = pt.Elem()
	}
}

func shortName(obj *types.Func) string {
	sig := obj.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		rt := r.Type()
		name := ""
		if pt, ok := rt.(*types.Pointer); ok {
			name = "(*" + typeBase(pt.Elem()) + ")"
		} else {
			name = typeBase(rt)
		}
		return name + "." + obj.Name()
	}
	return obj.Name()
}

func typeBase(t types.Type) string {
	s := t.String()
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	if i := strings.IndexByte(s, '.'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// ---- role annotations ----

func (p *Program) collectMarks() {
	for _, pkg := range p.Pkgs {
		for _, file := range pkg.Files {
			// Map each doc comment group to its function.
			docOf := make(map[*ast.CommentGroup]*FuncInfo)
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Doc != nil {
					docOf[fd.Doc] = p.byDecl[fd]
				}
			}
			for _, cg := range file.Comments {
				fn := docOf[cg]
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, roleMarker)
					if !ok {
						continue
					}
					role := rest
					if f := strings.Fields(rest); len(f) > 0 {
						role = f[0]
					} else {
						role = ""
					}
					mark := RoleMark{Role: role, Pos: c.Pos(), Pkg: pkg, Fn: fn}
					if fn != nil && ValidRoles[role] != "" {
						if fn.Role != "" {
							mark.Dup = true
						} else {
							fn.Role = role
						}
					}
					p.Marks = append(p.Marks, mark)
				}
			}
		}
	}
	sort.Slice(p.Marks, func(i, j int) bool { return p.Marks[i].Pos < p.Marks[j].Pos })
}

// ---- type sets ----

func (p *Program) buildTypeSets() {
	p.cellStructs = make(map[string]bool)
	p.engineState = make(map[string]bool)
	for _, s := range engineSeedTypes {
		p.engineState[s] = true
	}
	type named struct {
		name string
		st   *types.Struct
	}
	var all []named
	for _, pkg := range p.Pkgs {
		scope := pkg.Types.Scope()
		for _, nm := range scope.Names() {
			tn, ok := scope.Lookup(nm).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			all = append(all, named{tn.Type().String(), st})
			for i := 0; i < st.NumFields(); i++ {
				if IsPubPointer(st.Field(i).Type()) {
					p.cellStructs[tn.Type().String()] = true
					p.engineState[tn.Type().String()] = true
				}
			}
		}
	}
	// Close over containment: a struct holding engine state (directly,
	// by pointer, or by slice/array element) is engine state. So is a
	// struct that engine state embeds (directly or by pointer): its fields
	// are promoted fields of the outer struct, and a method of the embedded
	// type writes them for the outer one.
	for changed := true; changed; {
		changed = false
		for _, n := range all {
			if p.engineState[n.name] {
				for i := 0; i < n.st.NumFields(); i++ {
					if f := n.st.Field(i); f.Embedded() {
						if name := stripPtr(f.Type()).String(); !p.engineState[name] {
							p.engineState[name] = true
							changed = true
						}
					}
				}
				continue
			}
			for i := 0; i < n.st.NumFields(); i++ {
				t := stripPtr(n.st.Field(i).Type())
				for {
					if sl, ok := t.Underlying().(*types.Slice); ok {
						t = stripPtr(sl.Elem())
						continue
					}
					if ar, ok := t.Underlying().(*types.Array); ok {
						t = stripPtr(ar.Elem())
						continue
					}
					break
				}
				if p.engineState[t.String()] {
					p.engineState[n.name] = true
					changed = true
					break
				}
			}
		}
	}
}

// ---- per-function bindings ----

// bindings tracks, inside one function body, which local objects alias
// a parameter's reference chain and which hold published engine state.
type bindings struct {
	paramOf map[types.Object]int
	pub     map[types.Object]bool
}

// Eval returns an evaluator over expressions in fn's body: for a
// reference chain it yields the parameter index it roots at (-1 if
// none) and whether it denotes published engine state. Analyzers use it
// after BuildProgram; summaries are final by then.
func (p *Program) Eval(fn *FuncInfo) func(e ast.Expr) (paramIdx int, published bool) {
	b := p.computeBindings(fn)
	return func(e ast.Expr) (int, bool) {
		return p.evalExpr(fn, b, e)
	}
}

func (p *Program) computeBindings(fn *FuncInfo) *bindings {
	b := &bindings{paramOf: make(map[types.Object]int), pub: make(map[types.Object]bool)}
	for i, v := range fn.params {
		b.paramOf[v] = i
	}
	info := fn.Pkg.Info
	// Fixpoint over straight-line aliasing: bodies are small and
	// assignment chains short, so a few rounds settle everything.
	for round := 0; round < 6; round++ {
		changed := false
		bind := func(id *ast.Ident, rhs ast.Expr) {
			if id == nil || id.Name == "_" || rhs == nil {
				return
			}
			rt := info.TypeOf(rhs)
			if !Pointerish(rt) {
				return // value copy breaks the chain (e.g. c := *r)
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == nil {
				return
			}
			idx, pub := p.evalExpr(fn, b, rhs)
			if idx >= 0 {
				if cur, ok := b.paramOf[obj]; !ok || cur != idx {
					if !ok {
						b.paramOf[obj] = idx
						changed = true
					}
				}
			}
			if pub && !b.pub[obj] {
				b.pub[obj] = true
				changed = true
			}
		}
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							bind(id, n.Rhs[i])
						}
					}
				} else if len(n.Rhs) == 1 {
					// Tuple assignment from a call: taint pointerish
					// results when the callee returns published state.
					if call, ok := unparen(n.Rhs[0]).(*ast.CallExpr); ok {
						if _, pub := p.evalExpr(fn, b, call); pub {
							for _, lhs := range n.Lhs {
								if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
									if Pointerish(info.TypeOf(id)) {
										obj := info.Defs[id]
										if obj == nil {
											obj = info.Uses[id]
										}
										if obj != nil && !b.pub[obj] {
											b.pub[obj] = true
											changed = true
										}
									}
								}
							}
						}
					}
				}
			case *ast.RangeStmt:
				if id, ok := n.Value.(*ast.Ident); ok {
					bind(id, n.X)
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i, id := range n.Names {
						bind(id, n.Values[i])
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
	return b
}

// evalExpr resolves the reference chain of e: the parameter index it
// roots at (-1 when none) and whether it denotes published engine
// state. Copies are handled at binding time, so chains propagate
// through selectors, indexing, dereference, and address-of freely.
func (p *Program) evalExpr(fn *FuncInfo, b *bindings, e ast.Expr) (int, bool) {
	info := fn.Pkg.Info
	switch e := e.(type) {
	case *ast.ParenExpr:
		return p.evalExpr(fn, b, e.X)
	case *ast.StarExpr:
		return p.evalExpr(fn, b, e.X)
	case *ast.IndexExpr:
		return p.evalExpr(fn, b, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return p.evalExpr(fn, b, e.X)
		}
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
				return -1, false
			}
		}
		return p.evalExpr(fn, b, e.X)
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		if obj == nil {
			return -1, false
		}
		idx, ok := b.paramOf[obj]
		if !ok {
			idx = -1
		}
		return idx, b.pub[obj]
	case *ast.CallExpr:
		// Load on the published pointer is the taint source.
		if sel, ok := unparen(e.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Load" {
			if IsPubPointer(info.TypeOf(sel.X)) {
				return -1, true
			}
		}
		ci, args := p.ResolveCall(fn.Pkg, e)
		if ci == nil {
			return -1, false
		}
		if ci.ReturnsPublished {
			return -1, true
		}
		for j, arg := range args {
			if arg != nil && j < len(ci.ReturnsParam) && ci.ReturnsParam[j] {
				// The callee returns an alias of this argument: the call
				// evaluates to whatever the argument evaluates to, both
				// the parameter root and the published taint.
				if idx, pub := p.evalExpr(fn, b, arg); idx >= 0 || pub {
					return idx, pub
				}
			}
		}
	}
	return -1, false
}

// ---- direct facts ----

func (p *Program) collectFacts(fn *FuncInfo) {
	info := fn.Pkg.Info
	b := p.computeBindings(fn)
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if obj, _ := calleeOf(fn.Pkg, n); obj != nil {
				fn.Calls = append(fn.Calls, CallSite{Callee: obj.FullName(), Pos: n.Pos()})
			}
			if sel, ok := unparen(n.Fun).(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
					rt := info.TypeOf(sel.X)
					if rt != nil {
						switch stripPtr(rt).String() {
						case "sync.Mutex", "sync.RWMutex":
							cell := false
							if owner, ok := unparen(sel.X).(*ast.SelectorExpr); ok {
								cell = p.IsCellStruct(info.TypeOf(owner.X))
							}
							fn.Locks = append(fn.Locks, LockSite{
								Pos:  n.Pos(),
								Cell: cell,
								Desc: types.ExprString(sel.X),
							})
						}
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				p.recordStore(fn, b, lhs)
			}
		case *ast.IncDecStmt:
			p.recordStore(fn, b, n.X)
		}
		return true
	})
}

// recordStore records lhs as a parameter-rooted store when it writes
// through a reference chain (selector/index/deref) rooted at a
// pointerish parameter. Plain identifier assignments rebind locals and
// are not stores.
func (p *Program) recordStore(fn *FuncInfo, b *bindings, lhs ast.Expr) {
	switch unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	idx, _ := p.evalExpr(fn, b, lhs)
	if idx < 0 {
		return
	}
	pt := fn.params[idx].Type()
	if !Pointerish(pt) {
		return // stores through a value receiver/parameter stay local
	}
	fn.Stores = append(fn.Stores, StoreSite{Pos: lhs.Pos(), ParamIdx: idx, Root: pt})
}

// ---- summary fixpoint ----

func (p *Program) updateSummaries(fn *FuncInfo) bool {
	changed := false
	b := p.computeBindings(fn)

	// Direct stores.
	for _, st := range fn.Stores {
		if !fn.MutatesParam[st.ParamIdx] {
			fn.MutatesParam[st.ParamIdx] = true
			fn.MutPos[st.ParamIdx] = st.Pos
			changed = true
		}
	}

	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			ci, args := p.ResolveCall(fn.Pkg, n)
			if ci == nil {
				return true
			}
			if RoleExemptsMutation(ci.Role) {
				// A role declares the callee's mutation sanctioned;
				// calling it does not make the caller a mutator.
				return true
			}
			for j, arg := range args {
				if arg == nil || j >= len(ci.MutatesParam) || !ci.MutatesParam[j] {
					continue
				}
				if !Pointerish(fn.Pkg.Info.TypeOf(arg)) {
					continue
				}
				idx, _ := p.evalExpr(fn, b, arg)
				if idx >= 0 && !fn.MutatesParam[idx] {
					fn.MutatesParam[idx] = true
					fn.MutPos[idx] = n.Pos()
					changed = true
				}
			}
		case *ast.ReturnStmt:
			if fn.Role == RoleFork || fn.Role == RoleClone {
				return true
			}
			for _, res := range n.Results {
				idx, pub := p.evalExpr(fn, b, res)
				if pub && !fn.ReturnsPublished {
					fn.ReturnsPublished = true
					changed = true
				}
				if idx >= 0 && Pointerish(fn.Pkg.Info.TypeOf(res)) && !fn.ReturnsParam[idx] {
					fn.ReturnsParam[idx] = true
					changed = true
				}
			}
		}
		return true
	})
	return changed
}
