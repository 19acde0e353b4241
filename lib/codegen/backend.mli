(** Backend-polymorphic native compilation.

    One signature over the two native substrates — {!Jit} (emitted
    OCaml, [ocamlopt -shared], [Dynlink]) and {!Cc} (emitted C99,
    [cc -shared], [dlopen]) — so every driver that compiles a
    {!Blueprint} and runs it against an {!Env.t} can take the backend
    as a value.  Both substrates share the blueprint normalization,
    the {!Symbolic} in-bounds proofs, the content-addressed artifact
    cache, the compile step and the compiled-kernel record
    ({!Native}), and the bitwise-agreement contract with the
    interpreter; the fuzzer's three-way differential is what enforces
    the last. *)

type compiled = Native.compiled = {
  bk_tag : string;
  bk_key : string;
  bk_artifact : string;
  bk_disposition : Artifact_cache.disposition;
  bk_compile_s : float;
  bk_remarks : string list;
  bk_run : ?bindings:(string * int) list -> Env.t -> (unit, string) result;
}
(** See {!Native.compiled}. *)

module type S = sig
  val tag : string

  val available : unit -> (unit, string) result
  (** Whether this backend's toolchain is usable in this process. *)

  val compile_blueprint :
    name:string -> Blueprint.t -> (compiled, string) result
end

module Ocaml : S
module C : S

val all : (module S) list
(** Every backend, OCaml first. *)

val names : string list
(** Their tags, for CLI enumerations and error messages. *)

val of_tag : string -> (module S) option
