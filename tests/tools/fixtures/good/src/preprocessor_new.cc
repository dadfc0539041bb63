// Positive fixture: naked-new must skip preprocessor directives.
// `#include <new>` and macro definitions mentioning new/delete are
// not allocation expressions.
#include <new>
#define FIXTURE_NEW_NAME new_name
#define FIXTURE_DELETE_NAME delete_name

using Int = int;

int
placementTarget()
{
    alignas(Int) unsigned char buf[sizeof(Int)];
    // Placement new is still an allocation expression textually; the
    // sanctioned pool use justifies itself.
    Int *p = new (buf) Int(7); // cmt-analyze: allow(naked-new)
    const Int v = *p;
    p->~Int();
    return v;
}
