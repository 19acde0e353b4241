(* Marshal's small-format encoding of a [(string * float array) list],
   streamed into MD5 instead of built.  The codes are the ones in the
   runtime's intext.h; the test suite checks the result against
   [Marshal.to_string] on every length class. *)

external md5_pieces : (string * float array) list -> string -> Digest.t
  = "blockc_md5_pieces"

let pair_block = '\xA0' (* PREFIX_SMALL_BLOCK + tag 0 + (size 2 lsl 4) *)
let empty_list = "\x40" (* PREFIX_SMALL_INT + 0 *)

let add_len32 b n = Buffer.add_int32_be b (Int32.of_int n)

(* CODE_DOUBLE_ARRAY{8,32}_{LITTLE,BIG}: Marshal writes doubles in the
   host's order and names the order in the code. *)
let code8, code32 = if Sys.big_endian then ('\x0D', '\x0F') else ('\x0E', '\x07')

(* A physically repeated name or array would be marshalled as a
   back-reference; those lists take the slow path. *)
let rec shares = function
  | [] -> false
  | (s, a) :: rest -> List.exists (fun (s', a') -> s' == s || a' == a) rest || shares rest

let float_arrays l =
  let data = ref (String.length empty_list) and objects = ref 0 in
  let w32 = ref 0 and w64 = ref 0 in
  let piece (name, a) =
    let b = Buffer.create 16 in
    (* list cell, then the pair: each a 2-field block *)
    Buffer.add_char b pair_block;
    Buffer.add_char b pair_block;
    let len = String.length name in
    if len < 0x20 then Buffer.add_char b (Char.chr (0x20 + len))
    else if len < 0x100 then begin
      Buffer.add_char b '\x09';
      Buffer.add_uint8 b len
    end
    else begin
      Buffer.add_char b '\x0A';
      add_len32 b len
    end;
    Buffer.add_string b name;
    let n = Array.length a in
    (* [||] is an atom: a size-0 block header, not a recorded object *)
    if n = 0 then Buffer.add_char b '\x80'
    else if n < 0x100 then begin
      Buffer.add_char b code8;
      Buffer.add_uint8 b n
    end
    else begin
      Buffer.add_char b code32;
      add_len32 b n
    end;
    data := !data + Buffer.length b + (8 * n);
    objects := !objects + if n = 0 then 3 else 4;
    let arr32, arr64 = if n = 0 then (0, 0) else (1 + (2 * n), 1 + n) in
    w32 := !w32 + 6 + 1 + ((len + 4) / 4) + arr32;
    w64 := !w64 + 6 + 1 + ((len + 8) / 8) + arr64;
    (Buffer.contents b, a)
  in
  let pieces = List.map piece l in
  let fits x = Sys.word_size = 64 && x < 1 lsl 32 in
  if shares l || not (fits !data && fits !w32 && fits !w64) then
    Digest.string (Marshal.to_string l [])
  else begin
    let h = Buffer.create 20 in
    List.iter (add_len32 h) [ !data; !objects; !w32; !w64 ];
    let header = "\x84\x95\xA6\xBE" ^ Buffer.contents h in
    md5_pieces ((header, [||]) :: pieces) empty_list
  end
