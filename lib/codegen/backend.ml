(* Backend-polymorphic native compilation: one signature over the
   ocamlopt/Dynlink pipeline (Jit) and the cc/dlopen pipeline (Cc), so
   drivers — native_compare, the fuzzer, serve, the CLI — select a
   substrate by tag and are otherwise identical. *)

type compiled = Native.compiled = {
  bk_tag : string;
  bk_key : string;
  bk_artifact : string;
  bk_disposition : Artifact_cache.disposition;
  bk_compile_s : float;
  bk_remarks : string list;
  bk_run : ?bindings:(string * int) list -> Env.t -> (unit, string) result;
}

module type S = sig
  val tag : string
  val available : unit -> (unit, string) result

  val compile_blueprint :
    name:string -> Blueprint.t -> (compiled, string) result
end

module Ocaml : S = Jit
module C : S = Cc

let all = [ (module Ocaml : S); (module C : S) ]
let names = List.map (fun (module B : S) -> B.tag) all

let of_tag tag =
  List.find_opt (fun (module B : S) -> String.equal B.tag tag) all
