package dstruct

import (
	"repro/internal/colblock"
	"repro/internal/faultinject"
	"repro/internal/value"
)

// faultWords wraps a container with fault-injection points. It exists only
// while a faultinject.Plane is installed at construction time (see
// NewWords); production containers are never wrapped, so the injection
// layer costs nothing when off.
//
// Every point fires before the underlying operation runs ("fail-before"
// semantics): an injected panic models the operation never having happened,
// which is the contract the instance undo log restores against. The Words
// interface cannot return errors, so all dstruct sites are panic-only.
type faultWords[V any] struct {
	m Words[V]
	p *faultinject.Plane
}

// wrapFault wraps m when a fault plane is installed.
func wrapFault[V any](m Words[V]) Words[V] {
	if p := faultinject.Active(); p != nil {
		return &faultWords[V]{m: m, p: p}
	}
	return m
}

func (f *faultWords[V]) Arity() int { return f.m.Arity() }

func (f *faultWords[V]) Get(vw colblock.View, k []colblock.Code) (V, bool) {
	_ = f.p.Point("dstruct.get", false)
	return f.m.Get(vw, k)
}

func (f *faultWords[V]) Get1(vw colblock.View, k colblock.Code) (V, bool) {
	_ = f.p.Point("dstruct.getbyvalue", false)
	return f.m.Get1(vw, k)
}

func (f *faultWords[V]) Put(vw colblock.View, k []colblock.Code, v V) {
	_ = f.p.Point("dstruct.put", false)
	f.m.Put(vw, k, v)
}

// Delete is a lookup and an unlink in one call, and keeps the point of
// each: the two steps a caller that needed the removed value used to make
// as separate Get and Delete calls.
func (f *faultWords[V]) Delete(vw colblock.View, k []colblock.Code) (V, bool) {
	_ = f.p.Point("dstruct.get", false)
	_ = f.p.Point("dstruct.delete", false)
	return f.m.Delete(vw, k)
}

func (f *faultWords[V]) Len() int { return f.m.Len() }

func (f *faultWords[V]) Range(fn func(k []colblock.Code, v V) bool) {
	_ = f.p.Point("dstruct.range", false)
	f.m.Range(fn)
}

// AppendEntries fires the point Range fires — a bulk extraction is one
// logical range sweep.
func (f *faultWords[V]) AppendEntries(ks []colblock.Code, vs []V) ([]colblock.Code, []V) {
	_ = f.p.Point("dstruct.range", false)
	return f.m.AppendEntries(ks, vs)
}

// Clone fires its own point and rewraps the inner clone, so copy-on-write
// node cloning stays inside the injection surface: a schedule can kill a
// mutation exactly at the moment it forks a version.
//
//relvet:role=clone
func (f *faultWords[V]) Clone() Words[V] {
	_ = f.p.Point("dstruct.clone", false)
	return &faultWords[V]{m: f.m.Clone(), p: f.p}
}

func (f *faultWords[V]) Kind() Kind { return f.m.Kind() }

func (f *faultWords[V]) Footprint() Footprint { return f.m.Footprint() }

// RangeBetween keeps the range-seek fast path visible through the wrapper:
// plan execution discovers it by type assertion, which would otherwise stop
// at the wrapper and silently pin every range query to the filtered-scan
// fallback while injection is on. An unordered inner map degrades to the
// same filter the caller would have used.
func (f *faultWords[V]) RangeBetween(vw colblock.View, lo, hi *value.Value, fn func(k []colblock.Code, v V) bool) {
	_ = f.p.Point("dstruct.range", false)
	if r, ok := f.m.(WordRanger[V]); ok {
		r.RangeBetween(vw, lo, hi, fn)
		return
	}
	f.m.Range(func(k []colblock.Code, v V) bool {
		return !between(vw, k[0], lo, hi) || fn(k, v)
	})
}
