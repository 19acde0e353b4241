/* MD5 over interleaved byte strings and float arrays, the arrays read
 * in place.  Marshal_digest builds every byte of Marshal's output except
 * the arrays' payloads; those are the arrays' own storage, because
 * Marshal writes a float array as its native-endian doubles.  The
 * runtime lock is held throughout and nothing is allocated until the
 * digest is final, so no GC can move an array while it is read. */

#define CAML_INTERNALS
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/md5.h>

/* [pieces] : (string * float array) list, [trailer] : string. */
CAMLprim value blockc_md5_pieces(value pieces, value trailer)
{
  CAMLparam2(pieces, trailer);
  struct MD5Context ctx;
  unsigned char digest[16];
  value l, bytes, arr;
  caml_MD5Init(&ctx);
  for (l = pieces; l != Val_emptylist; l = Field(l, 1)) {
    bytes = Field(Field(l, 0), 0);
    arr = Field(Field(l, 0), 1);
    caml_MD5Update(&ctx, (unsigned char *) String_val(bytes),
                   caml_string_length(bytes));
    caml_MD5Update(&ctx, (unsigned char *) arr,
                   Wosize_val(arr) * sizeof(value));
  }
  caml_MD5Update(&ctx, (unsigned char *) String_val(trailer),
                 caml_string_length(trailer));
  caml_MD5Final(digest, &ctx);
  CAMLreturn(caml_alloc_initialized_string(16, (const char *) digest));
}
