/* Incremental MD5 over the runtime's own implementation: the code
   [Digest.string] runs, so a digest fed in any chunks equals it. */

#define CAML_INTERNALS
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/md5.h>

#define Ctx_val(v) ((struct MD5Context *) Bytes_val(v))

CAMLprim value t11r_md5_init(value unit)
{
  value ctx = caml_alloc_string(sizeof(struct MD5Context));
  caml_MD5Init(Ctx_val(ctx));
  return ctx;
}

CAMLprim value t11r_md5_update(value ctx, value s, value ofs, value len)
{
  caml_MD5Update(Ctx_val(ctx), (unsigned char *) String_val(s) + Long_val(ofs),
                 Long_val(len));
  return Val_unit;
}

CAMLprim value t11r_md5_final(value ctx)
{
  CAMLparam1(ctx);
  unsigned char d[16];
  caml_MD5Final(d, Ctx_val(ctx));
  CAMLreturn(caml_alloc_initialized_string(16, (char *) d));
}
