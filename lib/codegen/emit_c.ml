(* IR -> C99 lowering.  See emit_c.mli for the contract.

   The generated translation unit exposes one fixed-ABI entry point,
   [blockc_cc_kernel], that the {!Cc} driver calls through a dlopen
   stub.  The layout mirrors {!Emit}: flat column-major buffers bound
   once in a preamble, scalars as locals written back on exit, loops
   with the interpreter's once-evaluated bounds and trip count, and the
   same name mangling by prefix.  The analysis — which names exist,
   which accesses are provably in bounds, which parameters the proofs
   assumed positive — is Emit's own ([Emit.collect], [Emit.ple],
   [Emit.base_ctx]), so the two backends can never disagree about
   safety.

   Bitwise agreement with the interpreter and the OCaml plugin rests
   on: compiling with [-ffp-contract=off] (no FMA contraction), float
   constants as C99 hex literals (exact), [fcmp] reproducing OCaml's
   [Float.compare] total order, C99 [/] truncating like OCaml's [/],
   and IEEE [sqrt]/[fabs]/negation being exactly rounded in both
   worlds.  Runtime failures (zero step, negative SQRT, out-of-bounds
   checked access) longjmp back to the entry point, which returns
   nonzero with the message in the caller's buffer.

   The unit includes only <setjmp.h>, so that cc parses little beyond
   the kernel: it declares the three libc functions it calls itself,
   and spells NaN, infinity and isnan as the compiler builtins the
   <math.h> macros expand to.  [__builtin_isnan(a)], not [a != a]:
   the test is the same, but gcc 12 allocates transformed lu_pivot's
   registers differently for the latter, and the objects are meant to
   keep the instructions they had with the headers. *)

module SS = Emit.SS
module SM = Emit.SM

type shapes = Emit.shapes

(* The host-side marshaling contract: which Env names go into the
   fixed-ABI argument arrays, in which order.  Deterministic (sorted by
   name, ranks alongside) and derivable from the block and its shapes,
   so a disk-cached object can be invoked without re-emitting. *)
type manifest = {
  m_farrays : (string * int) list;
  m_iarrays : (string * int) list;
  m_fscalars : string list;
  m_iscalars : string list;
  m_fsc_w : string list;
  m_isc_w : string list;
}

let manifest_of_decls (d : Emit.decls) =
  {
    m_farrays = SM.bindings d.Emit.farr;
    m_iarrays = SM.bindings d.Emit.iarr;
    m_fscalars = SS.elements d.Emit.fsc;
    m_iscalars = SS.elements d.Emit.isc;
    m_fsc_w = SS.elements d.Emit.fsc_w;
    m_isc_w = SS.elements d.Emit.isc_w;
  }

let manifest ~shapes blk =
  let d = Emit.collect ~shapes blk in
  match d.Emit.bad with
  | Some m -> Error m
  | None -> Ok (manifest_of_decls d)

let low = String.lowercase_ascii

(* Position of [name] in the sorted list, for indexing the argument
   arrays, plus its flat offset into the packed dims vector. *)
let slot names name =
  let rec go i = function
    | [] -> invalid_arg "Emit_c.slot"
    | (n, _) :: _ when String.equal n name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 names

let dim_offset names name =
  let rec go off = function
    | [] -> invalid_arg "Emit_c.dim_offset"
    | (n, _) :: _ when String.equal n name -> off
    | (_, rank) :: rest -> go (off + (2 * rank)) rest
  in
  go 0 names

let scalar_slot names name =
  let rec go i = function
    | [] -> invalid_arg "Emit_c.scalar_slot"
    | n :: _ when String.equal n name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 names

(* ---- rendering ---------------------------------------------------- *)

type st = {
  d : Emit.decls;
  shapes : shapes;
  unsafe : bool;
  tainted : SS.t;
  body : Buffer.t;
  mutable proved : SS.t;
  mutable assumed : SS.t;
  mutable n_raw : int;
}

let line st ind fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string st.body (String.make (2 * ind) ' ');
      Buffer.add_string st.body s;
      Buffer.add_char st.body '\n')
    fmt

(* C99 hexadecimal float literals are exact: no decimal round-trip to
   trust, no translation-time rounding mode to worry about.  A NaN
   keeps its sign and payload (OCaml's [nan] has payload 1, C's
   [nan("")] 0), so the interpreter, the plugin and the object agree on
   its bits. *)
let float_lit x =
  if Float.is_nan x then
    let bits = Int64.bits_of_float x in
    let lit =
      Printf.sprintf "__builtin_nan%s(\"0x%Lx\")"
        (if Int64.logand bits 0x8_0000_0000_0000L = 0L then "s" else "")
        (Int64.logand bits 0x7_ffff_ffff_ffffL)
    in
    if Int64.compare bits 0L < 0 then "(-" ^ lit ^ ")" else lit
  else if x = Float.infinity then "__builtin_inf()"
  else if x = Float.neg_infinity then "(-__builtin_inf())"
  else
    let s = Printf.sprintf "%h" x in
    if s.[0] = '-' then "(" ^ s ^ ")" else s

let flat_index pe ~ipfx name subs =
  let nm = low name in
  let terms =
    List.mapi
      (fun k sub ->
        if k = 0 then Printf.sprintf "(%s - %sl0_%s)" (pe sub) ipfx nm
        else
          Printf.sprintf "((%s - %sl%d_%s) * %st%d_%s)" (pe sub) ipfx k nm ipfx
            k nm)
      subs
  in
  match terms with [ t ] -> t | _ -> "(" ^ String.concat " + " terms ^ ")"

let in_bounds st ctx name subs =
  st.unsafe
  &&
  match ctx with
  | None -> false
  | Some ctx -> (
      match List.assoc_opt name st.shapes with
      | Some dims when List.length dims = List.length subs ->
          let ok =
            List.for_all2
              (fun (lo, hi) s -> Emit.ple ctx lo s && Emit.ple ctx s hi)
              dims subs
          in
          if ok then begin
            st.proved <- SS.add name st.proved;
            st.n_raw <- st.n_raw + 1
          end;
          ok
      | _ -> false)

let rec pe st scope ctx (e : Expr.t) =
  match e with
  | Expr.Int n -> if n < 0 then Printf.sprintf "(%d)" n else string_of_int n
  | Expr.Var v -> if SS.mem v scope then "i_" ^ low v else "s_" ^ low v
  | Expr.Bin (op, a, b) ->
      let o =
        match op with
        | Expr.Add -> "+"
        | Expr.Sub -> "-"
        | Expr.Mul -> "*"
        | Expr.Div -> "/"
      in
      Printf.sprintf "(%s %s %s)" (pe st scope ctx a) o (pe st scope ctx b)
  | Expr.Min (a, b) ->
      Printf.sprintf "imin(%s, %s)" (pe st scope ctx a) (pe st scope ctx b)
  | Expr.Max (a, b) ->
      Printf.sprintf "imax(%s, %s)" (pe st scope ctx a) (pe st scope ctx b)
  | Expr.Idx (name, subs) ->
      let idx = flat_index (pe st scope ctx) ~ipfx:"i" name subs in
      if in_bounds st ctx name subs then
        Printf.sprintf "ia_%s[%s]" (low name) idx
      else
        Printf.sprintf "bk_geti(bk, ia_%s, %s, ilen_%s, %S)" (low name) idx
          (low name) name

let rec pf st scope ctx (fe : Stmt.fexpr) =
  match fe with
  | Stmt.Fconst x -> float_lit x
  | Stmt.Fvar v -> "f_" ^ low v
  | Stmt.Ref (name, subs) ->
      let idx = flat_index (pe st scope ctx) ~ipfx:"" name subs in
      if in_bounds st ctx name subs then
        Printf.sprintf "a_%s[%s]" (low name) idx
      else
        Printf.sprintf "bk_getf(bk, a_%s, %s, len_%s, %S)" (low name) idx
          (low name) name
  | Stmt.Fbin (op, a, b) ->
      let o =
        match op with
        | Stmt.FAdd -> "+"
        | Stmt.FSub -> "-"
        | Stmt.FMul -> "*"
        | Stmt.FDiv -> "/"
      in
      Printf.sprintf "(%s %s %s)" (pf st scope ctx a) o (pf st scope ctx b)
  | Stmt.Fneg a -> Printf.sprintf "(- %s)" (pf st scope ctx a)
  | Stmt.Fcall (("SQRT" | "DSQRT"), [ x ]) ->
      Printf.sprintf "bk_sqrt(bk, %s)" (pf st scope ctx x)
  | Stmt.Fcall (("ABS" | "DABS"), [ x ]) ->
      Printf.sprintf "fabs(%s)" (pf st scope ctx x)
  | Stmt.Fcall (("SIGN" | "DSIGN"), [ a; b ]) ->
      Printf.sprintf "fsign(%s, %s)" (pf st scope ctx a) (pf st scope ctx b)
  | Stmt.Fcall _ -> "0.0" (* rejected during collection *)
  | Stmt.Of_int e -> Printf.sprintf "((double) %s)" (pe st scope ctx e)

let rel_op (r : Stmt.rel) =
  match r with
  | Stmt.Eq -> "=="
  | Stmt.Ne -> "!="
  | Stmt.Lt -> "<"
  | Stmt.Le -> "<="
  | Stmt.Gt -> ">"
  | Stmt.Ge -> ">="

let rec pc st scope ctx (c : Stmt.cond) =
  match c with
  | Stmt.Fcmp (r, a, b) ->
      (* fcmp reproduces OCaml's Float.compare: total order, NaN = NaN. *)
      Printf.sprintf "(fcmp(%s, %s) %s 0)" (pf st scope ctx a)
        (pf st scope ctx b) (rel_op r)
  | Stmt.Icmp (r, a, b) ->
      Printf.sprintf "(%s %s %s)" (pe st scope ctx a) (rel_op r)
        (pe st scope ctx b)
  | Stmt.Not a -> Printf.sprintf "(!%s)" (pc st scope ctx a)
  | Stmt.And (a, b) ->
      Printf.sprintf "(%s && %s)" (pc st scope ctx a) (pc st scope ctx b)
  | Stmt.Or (a, b) ->
      Printf.sprintf "(%s || %s)" (pc st scope ctx a) (pc st scope ctx b)

let rec stmt st scope ctx ind (s : Stmt.t) =
  match s with
  | Stmt.Assign (name, [], rhs) ->
      line st ind "f_%s = %s;" (low name) (pf st scope ctx rhs)
  | Stmt.Assign (name, subs, rhs) ->
      let rhs = pf st scope ctx rhs in
      let idx = flat_index (pe st scope ctx) ~ipfx:"" name subs in
      if in_bounds st ctx name subs then
        line st ind "a_%s[%s] = %s;" (low name) idx rhs
      else
        line st ind "bk_setf(bk, a_%s, %s, len_%s, %S, %s);" (low name) idx
          (low name) name rhs
  | Stmt.Iassign (name, [], rhs) ->
      line st ind "s_%s = %s;" (low name) (pe st scope ctx rhs)
  | Stmt.Iassign (name, subs, rhs) ->
      let rhs = pe st scope ctx rhs in
      let idx = flat_index (pe st scope ctx) ~ipfx:"i" name subs in
      if in_bounds st ctx name subs then
        line st ind "ia_%s[%s] = %s;" (low name) idx rhs
      else
        line st ind "bk_seti(bk, ia_%s, %s, ilen_%s, %S, %s);" (low name) idx
          (low name) name rhs
  | Stmt.If (c, t, e) ->
      line st ind "if %s {" (pc st scope ctx c);
      block st scope ctx (ind + 1) t;
      if e = [] then line st ind "}"
      else begin
        line st ind "} else {";
        block st scope ctx (ind + 1) e;
        line st ind "}"
      end
  | Stmt.Loop l ->
      let ix = low l.index in
      let inner_scope = SS.add l.index scope in
      (* A re-bound index invalidates the outer facts about its name; no
         way to retract them, so stop proving inside. *)
      let ctx' =
        if SS.mem l.index scope then None
        else Option.map (fun c -> Emit.enter_loop ~tainted:st.tainted c l) ctx
      in
      line st ind "{";
      let ind' = ind + 1 in
      line st ind' "const long lo_%s = %s;" ix (pe st scope ctx l.lo);
      line st ind' "const long hi_%s = %s;" ix (pe st scope ctx l.hi);
      (match l.step with
      | Expr.Int 1 ->
          line st ind' "for (long i_%s = lo_%s; i_%s <= hi_%s; i_%s++) {" ix
            ix ix ix ix;
          block st inner_scope ctx' (ind' + 1) l.body;
          line st ind' "}"
      | step ->
          line st ind' "const long st_%s = %s;" ix (pe st scope ctx step);
          line st ind' "if (st_%s == 0) bk_fail(bk, \"DO %s: zero step\");" ix
            l.index;
          line st ind' "const long n_%s = (hi_%s - lo_%s + st_%s) / st_%s;" ix
            ix ix ix ix;
          line st ind' "long r_%s = lo_%s;" ix ix;
          line st ind' "for (long z_%s = 0; z_%s < n_%s; z_%s++) {" ix ix ix ix;
          line st (ind' + 1) "const long i_%s = r_%s;" ix ix;
          block st inner_scope ctx' (ind' + 1) l.body;
          line st (ind' + 1) "r_%s = i_%s + st_%s;" ix ix ix;
          line st ind' "}");
      line st ind "}"

and block st scope ctx ind = function
  | [] -> line st ind ";"
  | stmts -> List.iter (stmt st scope ctx ind) stmts

(* ---- assembly ----------------------------------------------------- *)

let revision = "1"

let header name =
  Printf.sprintf
    "/* %s — C99 lowered from the mini-Fortran IR by blockc's codegen.\n\
    \   Linked without libc: its imports (setjmp, longjmp, snprintf, sqrt)\n\
    \   resolve against the host process when the Cc stub dlopens it.\n\
    \   The host calls [blockc_cc_kernel]; buffers are the Env's flat\n\
    \   column-major arrays, passed in manifest (sorted-name) order. */\n"
    name

let helpers =
  "#include <setjmp.h>\n\n\
   /* The libc functions the kernel calls, declared here rather than\n\
  \   through <math.h> and <stdio.h>: parsing those costs every compile. */\n\
   double sqrt(double);\n\
   double fabs(double);\n\
   int snprintf(char *, __SIZE_TYPE__, const char *, ...);\n\n\
   static long imin(long a, long b) { return a <= b ? a : b; }\n\
   static long imax(long a, long b) { return a >= b ? a : b; }\n\n\
   /* OCaml Float.compare: total order, NaN equal to itself and below\n\
  \   every other value. */\n\
   static int fcmp(double a, double b) {\n\
  \  if (a < b) return -1;\n\
  \  if (a > b) return 1;\n\
  \  if (a == b) return 0;\n\
  \  if (__builtin_isnan(a)) return __builtin_isnan(b) ? 0 : -1;\n\
  \  return 1;\n\
   }\n\n\
   static double fsign(double a, double b) {\n\
  \  return b >= 0.0 ? fabs(a) : -fabs(a);\n\
   }\n\n\
   /* Runtime failures unwind to the entry point, which returns nonzero\n\
  \   with the message in the caller's 256-byte buffer. */\n\
   typedef struct { jmp_buf jb; char *err; } bk_ctx;\n\n\
   static void bk_fail(bk_ctx *bk, const char *msg) {\n\
  \  snprintf(bk->err, 256, \"%s\", msg);\n\
  \  longjmp(bk->jb, 1);\n\
   }\n\n\
   static double bk_sqrt(bk_ctx *bk, double x) {\n\
  \  if (x < 0.0) {\n\
  \    snprintf(bk->err, 256, \"SQRT of negative %g\", x);\n\
  \    longjmp(bk->jb, 1);\n\
  \  }\n\
  \  return sqrt(x);\n\
   }\n\n\
   static void bk_oob(bk_ctx *bk, const char *name) {\n\
  \  snprintf(bk->err, 256, \"out of bounds: %s\", name);\n\
  \  longjmp(bk->jb, 1);\n\
   }\n\n\
   static double bk_getf(bk_ctx *bk, const double *a, long off, long n,\n\
  \                      const char *name) {\n\
  \  if (off < 0 || off >= n) bk_oob(bk, name);\n\
  \  return a[off];\n\
   }\n\n\
   static void bk_setf(bk_ctx *bk, double *a, long off, long n,\n\
  \                    const char *name, double v) {\n\
  \  if (off < 0 || off >= n) bk_oob(bk, name);\n\
  \  a[off] = v;\n\
   }\n\n\
   static long bk_geti(bk_ctx *bk, const long *a, long off, long n,\n\
  \                    const char *name) {\n\
  \  if (off < 0 || off >= n) bk_oob(bk, name);\n\
  \  return a[off];\n\
   }\n\n\
   static void bk_seti(bk_ctx *bk, long *a, long off, long n,\n\
  \                    const char *name, long v) {\n\
  \  if (off < 0 || off >= n) bk_oob(bk, name);\n\
  \  a[off] = v;\n\
   }\n"

(* The body pass over a block [Emit.collect] accepted. *)
let render ~unsafe ~shapes d blk =
  let st =
    {
      d;
      shapes;
      unsafe;
      tainted = d.Emit.isc_w;
      body = Buffer.create 4096;
      proved = SS.empty;
      assumed = SS.empty;
      n_raw = 0;
    }
  in
  let ctx, assumed = Emit.base_ctx ~tainted:st.tainted ~shapes blk in
  st.assumed <- assumed;
  block st SS.empty (Some ctx) 1 blk;
  st

let raw_accesses ?(unsafe = true) ?(shapes = []) blk =
  (render ~unsafe ~shapes (Emit.collect ~shapes blk) blk).n_raw

let source ?(unsafe = true) ?(shapes = []) ~name blk =
  let d = Emit.collect ~shapes blk in
  match d.Emit.bad with
  | Some m -> Error (Printf.sprintf "cannot compile %s: %s" name m)
  | None ->
      let st = render ~unsafe ~shapes d blk in
      let mf = manifest_of_decls d in
      let b = Buffer.create 8192 in
      let out fmt = Printf.ksprintf (fun s -> Buffer.add_string b s) fmt in
      out "%s\n" (header name);
      out "%s\n" helpers;
      out
        "int blockc_cc_kernel(double **fa, const long *fdim, long **ia,\n\
        \                     const long *idim, double *fsc, long *isc,\n\
        \                     char *err) {\n";
      out "  bk_ctx ctx0;\n";
      out "  bk_ctx *const bk = &ctx0;\n";
      out "  bk->err = err;\n";
      out "  if (setjmp(bk->jb)) return 1;\n";
      out "  (void) fa; (void) fdim; (void) ia; (void) idim;\n";
      out "  (void) fsc; (void) isc; (void) bk;\n";
      (* Arrays: buffer, dims window, per-dimension lows and strides,
         and the flat length for checked accesses. *)
      let emit_arr ~ipfx ~data ~dims names name rank =
        let nm = low name in
        let apfx = if ipfx = "i" then "ia_" else "a_" in
        out "  %s *const %s%s = %s[%d]; /* %s */\n"
          (if ipfx = "i" then "long" else "double")
          apfx nm data (slot names name) name;
        out "  const long *const %sd_%s = %s + %d;\n" ipfx nm dims
          (dim_offset names name);
        out "  const long %sl0_%s = %sd_%s[0];\n" ipfx nm ipfx nm;
        for k = 1 to rank - 1 do
          out "  const long %sl%d_%s = %sd_%s[%d];\n" ipfx k nm ipfx nm (2 * k);
          let prev =
            if k = 1 then "1" else Printf.sprintf "%st%d_%s" ipfx (k - 1) nm
          in
          out "  const long %st%d_%s = %s * (%sd_%s[%d] - %sd_%s[%d] + 1);\n"
            ipfx k nm prev ipfx nm ((2 * (k - 1)) + 1) ipfx nm (2 * (k - 1))
        done;
        let last =
          if rank = 1 then "1"
          else Printf.sprintf "%st%d_%s" ipfx (rank - 1) nm
        in
        out "  const long %slen_%s = %s * (%sd_%s[%d] - %sd_%s[%d] + 1);\n"
          ipfx nm last ipfx nm ((2 * (rank - 1)) + 1) ipfx nm (2 * (rank - 1));
        out "  (void) %s%s; (void) %slen_%s;\n" apfx nm ipfx nm
      in
      List.iter
        (fun (name, rank) ->
          emit_arr ~ipfx:"" ~data:"fa" ~dims:"fdim" mf.m_farrays name rank)
        mf.m_farrays;
      List.iter
        (fun (name, rank) ->
          emit_arr ~ipfx:"i" ~data:"ia" ~dims:"idim" mf.m_iarrays name rank)
        mf.m_iarrays;
      (* Scalars: locals initialized from the packed vectors (the host
         fills unset ones with 0 / 0.0), written back below. *)
      List.iter
        (fun v ->
          out "  long s_%s = isc[%d]; (void) s_%s;\n" (low v)
            (scalar_slot mf.m_iscalars v) (low v))
        mf.m_iscalars;
      List.iter
        (fun v ->
          out "  double f_%s = fsc[%d]; (void) f_%s;\n" (low v)
            (scalar_slot mf.m_fscalars v) (low v))
        mf.m_fscalars;
      (* Everything the in-bounds proofs assumed, re-checked: declared
         shapes match the actual dims, assumed parameters are >= 1. *)
      if not (SS.is_empty st.proved) then begin
        SS.iter
          (fun v ->
            out
              "  if (s_%s < 1) {\n\
              \    snprintf(err, 256, \"%s: unchecked accesses assume %s >= \
               1\");\n\
              \    return 1;\n\
              \  }\n"
              (low v) name v)
          st.assumed;
        List.iter
          (fun (arr, dims) ->
            match SM.find_opt arr d.Emit.farr with
            | None -> ()
            | Some rank when rank <> List.length dims -> ()
            | Some _ ->
                let checks =
                  List.concat
                    (List.mapi
                       (fun k (lo, hi) ->
                         let p = pe st SS.empty None in
                         [
                           Printf.sprintf "d_%s[%d] == %s" (low arr) (2 * k)
                             (p lo);
                           Printf.sprintf "d_%s[%d] == %s" (low arr)
                             ((2 * k) + 1) (p hi);
                         ])
                       dims)
                in
                out
                  "  if (!(%s)) {\n\
                  \    snprintf(err, 256, \"%s: %s dims differ from the \
                   declared shape\");\n\
                  \    return 1;\n\
                  \  }\n"
                  (String.concat " && " checks) name arr)
          st.shapes
      end;
      Buffer.add_buffer b st.body;
      (* Write scalars back so the host environment sees the kernel's
         scalar results (loop indices stay internal, as in Fortran). *)
      List.iter
        (fun v ->
          out "  isc[%d] = s_%s; /* %s */\n" (scalar_slot mf.m_iscalars v)
            (low v) v)
        mf.m_isc_w;
      List.iter
        (fun v ->
          out "  fsc[%d] = f_%s; /* %s */\n" (scalar_slot mf.m_fscalars v)
            (low v) v)
        mf.m_fsc_w;
      out "  return 0;\n";
      out "}\n";
      Ok (Buffer.contents b)
