package dstruct

import (
	"repro/internal/faultinject"
	"repro/internal/relation"
	"repro/internal/value"
)

// faultMap wraps a Map with fault-injection points. It exists only while a
// faultinject.Plane is installed at construction time (see New); production
// maps are never wrapped, so the injection layer costs nothing when off.
//
// Every point fires before the underlying operation runs ("fail-before"
// semantics): an injected panic models the operation never having happened,
// which is the contract the instance undo log restores against. The Map
// interface cannot return errors, so all dstruct sites are panic-only.
type faultMap[V any] struct {
	m Map[V]
	p *faultinject.Plane
}

// wrapFault wraps m when a fault plane is installed.
func wrapFault[V any](m Map[V]) Map[V] {
	if p := faultinject.Active(); p != nil {
		return &faultMap[V]{m: m, p: p}
	}
	return m
}

func (f *faultMap[V]) Get(k relation.Tuple) (V, bool) {
	_ = f.p.Point("dstruct.get", false)
	return f.m.Get(k)
}

func (f *faultMap[V]) GetByValue(v value.Value) (V, bool) {
	_ = f.p.Point("dstruct.getbyvalue", false)
	return f.m.GetByValue(v)
}

func (f *faultMap[V]) Put(k relation.Tuple, v V) {
	_ = f.p.Point("dstruct.put", false)
	f.m.Put(k, v)
}

func (f *faultMap[V]) Delete(k relation.Tuple) bool {
	_ = f.p.Point("dstruct.delete", false)
	return f.m.Delete(k)
}

func (f *faultMap[V]) Len() int { return f.m.Len() }

func (f *faultMap[V]) Range(fn func(k relation.Tuple, v V) bool) {
	_ = f.p.Point("dstruct.range", false)
	f.m.Range(fn)
}

// Clone fires its own point and rewraps the inner clone, so copy-on-write
// node cloning stays inside the injection surface: a schedule can kill a
// mutation exactly at the moment it forks a version.
//
//relvet:role=clone
func (f *faultMap[V]) Clone() Map[V] {
	_ = f.p.Point("dstruct.clone", false)
	return &faultMap[V]{m: f.m.Clone(), p: f.p}
}

func (f *faultMap[V]) Kind() Kind { return f.m.Kind() }

// RangeBetween keeps the range-seek fast path visible through the wrapper:
// plan execution discovers it by type assertion, which would otherwise stop
// at the wrapper and silently pin every range query to the filtered-scan
// fallback while injection is on. An unordered inner map degrades to the
// same filter the caller would have used.
func (f *faultMap[V]) RangeBetween(lo, hi relation.Tuple, fn func(k relation.Tuple, v V) bool) {
	_ = f.p.Point("dstruct.range", false)
	if r, ok := f.m.(Ranger[V]); ok {
		r.RangeBetween(lo, hi, fn)
		return
	}
	f.m.Range(func(k relation.Tuple, v V) bool {
		return !between(k, lo, hi) || fn(k, v)
	})
}
