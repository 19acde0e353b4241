let subroutine ~name ~params block =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "SUBROUTINE %s(%s)\n" name (String.concat ", " params));
  let arrays = Ir_util.arrays_of block in
  let decl kind names =
    let render (n, rank) =
      if rank = 0 then n
      else n ^ "(" ^ String.concat ", " (List.init rank (fun _ -> "*")) ^ ")"
    in
    if names <> [] then
      Buffer.add_string buf
        (Printf.sprintf "  %s %s\n" kind
           (String.concat ", " (List.map render names)))
  in
  let of_space space =
    List.filter_map
      (fun (n, rank, sp) -> if sp = space then Some (n, rank) else None)
      arrays
  in
  decl "REAL*8" (of_space Ir_util.Float_data);
  (* Each INTEGER name once: the arrays and scalars the body uses, its
     loop indices and symbolic sizes, and the subroutine's parameters. *)
  let ints = of_space Ir_util.Int_data in
  let scalars =
    List.filter
      (fun n -> not (List.mem_assoc n ints))
      (Ir_util.index_vars block @ Ir_util.symbolic_params block @ params)
  in
  decl "INTEGER"
    (List.sort_uniq compare (ints @ List.map (fun n -> (n, 0)) scalars));
  List.iter
    (fun s ->
      let rendered = Stmt.to_string s in
      String.split_on_char '\n' rendered
      |> List.iter (fun line ->
             if line <> "" then Buffer.add_string buf ("  " ^ line ^ "\n")))
    block;
  Buffer.add_string buf "END\n";
  Buffer.contents buf
