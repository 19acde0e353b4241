/* Loading and invoking C-backend kernel objects.
 *
 * The generated translation unit (Emit_c) exports one fixed-ABI entry
 * point; blockc_cc_load dlopens the shared object once per process and
 * hands the function pointer back as a nativeint, and blockc_cc_run
 * marshals the packed argument tuple onto that ABI.
 *
 * Safety argument for the raw pointers (see DESIGN.md): REAL arrays
 * and scalars are passed as direct pointers into the OCaml heap (flat
 * float arrays are unboxed doubles), valid because (a) the argument
 * tuple is rooted for the duration of the call and (b) the runtime
 * lock is NOT released around the kernel, so no GC can run or move the
 * buffers while C holds the pointers.  Other domains that need a
 * stop-the-world collection stall until the kernel returns — kernels
 * are short-lived by construction.  INTEGER arrays and scalars are
 * tagged in the OCaml heap, so they are copied into malloc'd long
 * buffers on the way in and copied back on the way out.
 */

#include <string.h>
#include <dlfcn.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>

#define BK_MAX_ARRAYS 256

typedef int (*bk_kernel)(double **, const long *, long **, const long *,
                         double *, long *, char *);

CAMLprim value blockc_cc_load(value vpath)
{
  CAMLparam1(vpath);
  void *handle;
  void *fn;

  /* Never dlclosed: the content-addressed cache means one object per
     blueprint per compiler, and function pointers must stay valid for
     the life of the process (they are memoized on the OCaml side).

     Objects are linked with -nostdlib, so they carry no DT_NEEDED:
     their imports (_setjmp, longjmp, snprintf, sqrt, whatever memset
     or memcpy the compiler emitted) bind to the host's own libc and
     libm.  RTLD_NOW is what turns an import nothing defines into a
     dlopen failure here, which the cache counts as a corrupt entry
     and rebuilds; lazy binding would defer it to the kernel's first
     call of that function, where the dynamic linker ends the process. */
  handle = dlopen(String_val(vpath), RTLD_NOW | RTLD_LOCAL);
  if (handle == NULL)
    caml_failwith(dlerror());
  fn = dlsym(handle, "blockc_cc_kernel");
  if (fn == NULL)
    caml_failwith("blockc_cc_kernel: symbol not found in kernel object");
  CAMLreturn(caml_copy_nativeint((intnat) fn));
}

/* vargs = (fa, fdim, ia, idim, fsc, isc):
 *   fa   : float array array   REAL arrays, manifest order
 *   fdim : int array           packed per-dimension (lo, hi) pairs
 *   ia   : int array array     INTEGER arrays, manifest order
 *   idim : int array           their packed (lo, hi) pairs
 *   fsc  : float array         REAL scalars (written back in place)
 *   isc  : int array           INTEGER scalars (written back by us)
 * Returns "" on success, the kernel's error message otherwise.
 */
CAMLprim value blockc_cc_run(value vfn, value vargs)
{
  CAMLparam2(vfn, vargs);
  CAMLlocal1(vres);
  value vfa = Field(vargs, 0);
  value vfdim = Field(vargs, 1);
  value via = Field(vargs, 2);
  value vidim = Field(vargs, 3);
  value vfsc = Field(vargs, 4);
  value visc = Field(vargs, 5);

  bk_kernel fn = (bk_kernel) Nativeint_val(vfn);
  mlsize_t n_fa = Wosize_val(vfa);
  mlsize_t n_ia = Wosize_val(via);
  mlsize_t n_fdim = Wosize_val(vfdim);
  mlsize_t n_idim = Wosize_val(vidim);
  mlsize_t n_isc = Wosize_val(visc);
  double *fa[BK_MAX_ARRAYS];
  long *ia[BK_MAX_ARRAYS];
  mlsize_t ia_len[BK_MAX_ARRAYS];
  mlsize_t total, i, j;
  long *buf, *p, *fdim, *idim, *isc;
  char err[256];
  int rc;

  if (n_fa > BK_MAX_ARRAYS || n_ia > BK_MAX_ARRAYS)
    caml_failwith("cc kernel: too many arrays");

  total = n_fdim + n_idim + n_isc;
  for (i = 0; i < n_ia; i++) {
    ia_len[i] = Wosize_val(Field(via, i));
    total += ia_len[i];
  }
  buf = caml_stat_alloc((total ? total : 1) * sizeof(long));
  p = buf;
  fdim = p;
  for (i = 0; i < n_fdim; i++)
    fdim[i] = Long_val(Field(vfdim, i));
  p += n_fdim;
  idim = p;
  for (i = 0; i < n_idim; i++)
    idim[i] = Long_val(Field(vidim, i));
  p += n_idim;
  isc = p;
  for (i = 0; i < n_isc; i++)
    isc[i] = Long_val(Field(visc, i));
  p += n_isc;
  for (i = 0; i < n_ia; i++) {
    value arr = Field(via, i);
    ia[i] = p;
    for (j = 0; j < ia_len[i]; j++)
      p[j] = Long_val(Field(arr, j));
    p += ia_len[i];
  }
  /* Direct heap pointers; no OCaml allocation from here to copy-back. */
  for (i = 0; i < n_fa; i++)
    fa[i] = (double *) Field(vfa, i);

  err[0] = '\0';
  rc = fn(fa, fdim, ia, idim, (double *) vfsc, isc, err);
  err[255] = '\0';

  /* Copy INTEGER state back even on failure: the REAL buffers were
     mutated in place up to the failing statement, so mirroring the
     integer side keeps both backends' partial-failure states aligned. */
  for (i = 0; i < n_isc; i++)
    Field(visc, i) = Val_long(isc[i]);
  for (i = 0; i < n_ia; i++) {
    value arr = Field(via, i);
    long *src = ia[i];
    for (j = 0; j < ia_len[i]; j++)
      Field(arr, j) = Val_long(src[j]);
  }
  caml_stat_free(buf);

  if (rc == 0)
    vres = caml_copy_string("");
  else
    vres = caml_copy_string(err[0] ? err : "kernel failed");
  CAMLreturn(vres);
}
