package core

import (
	"reflect"
	"testing"

	"github.com/zipchannel/zipchannel/internal/taint"
)

// TestShadowIsPointerFree guards the shadow layout: register and memory
// shadows hold tag-set IDs, never pointers, so the GC allocates shadow
// pages as no-scan memory and never marks through them. A pointer, slice,
// map or interface field anywhere in these types would silently bring the
// scanning back.
func TestShadowIsPointerFree(t *testing.T) {
	for _, typ := range []reflect.Type{
		reflect.TypeOf(taint.Word{}),
		reflect.TypeOf(byteShadow{}),
		reflect.TypeOf(shadowPage{}),
	} {
		if path := pointerPath(typ, typ.String()); path != "" {
			t.Errorf("%s holds a GC-scanned field at %s", typ, path)
		}
	}
}

// pointerPath returns the path to the first field of typ that the GC
// must scan, or "" if there is none.
func pointerPath(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
		reflect.Interface, reflect.Chan, reflect.Func, reflect.String:
		return path + " (" + typ.Kind().String() + ")"
	case reflect.Array:
		return pointerPath(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerPath(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}
