type stmt =
  | Exec of Stmt.t
  | Do of { index : string; lo : Expr.t; hi : Expr.t; body : stmt list }
  | Block_do of { index : string; lo : Expr.t; hi : Expr.t; body : stmt list }
  | In_do of {
      block_index : string;
      index : string;
      bounds : (Expr.t * Expr.t) option;
      body : stmt list;
    }

let last k = Expr.idx "LAST" [ Expr.var k ]

(* Figure 11 verbatim:

   BLOCK DO K = 1,N-1
     IN K DO KK
       DO I = KK+1,N           A(I,KK) = A(I,KK)/A(KK,KK)
       DO J = KK+1,LAST(K)
         DO I = KK+1,N         A(I,J) = A(I,J) - A(I,KK)*A(KK,J)
     DO J = LAST(K)+1,N
       DO I = K+1,N
         IN K DO KK = K,MIN(LAST(K),I-1)
                               A(I,J) = A(I,J) - A(I,KK)*A(KK,J)
*)
let fig11_blocked_lu =
  let open Builder in
  let vn = v "N" and vk = v "K" and vkk = v "KK" and vi = v "I" and vj = v "J" in
  let scale =
    Exec (do_ "I" (vkk +! i 1) vn [ set2 "A" vi vkk (a2 "A" vi vkk /. a2 "A" vkk vkk) ])
  in
  let panel_update =
    Exec
      (do_ "J" (vkk +! i 1) (last "K")
         [
           do_ "I" (vkk +! i 1) vn
             [ set2 "A" vi vj (a2 "A" vi vj -. (a2 "A" vi vkk *. a2 "A" vkk vj)) ];
         ])
  in
  let trailing =
    Do
      {
        index = "J";
        lo = last "K" +! i 1;
        hi = vn;
        body =
          [
            Do
              {
                index = "I";
                lo = vk +! i 1;
                hi = vn;
                body =
                  [
                    In_do
                      {
                        block_index = "K";
                        index = "KK";
                        bounds = Some (vk, Expr.min_ (last "K") (vi -! i 1));
                        body =
                          [
                            Exec
                              (set2 "A" vi vj
                                 (a2 "A" vi vj -. (a2 "A" vi vkk *. a2 "A" vkk vj)));
                          ];
                      };
                  ];
              };
          ];
      }
  in
  Block_do
    {
      index = "K";
      lo = i 1;
      hi = vn -! i 1;
      body =
        [
          In_do
            {
              block_index = "K";
              index = "KK";
              bounds = None;
              body = [ scale; panel_update ];
            };
          trailing;
        ];
    }

(* The registry's point Householder (same reflectors) on a panel of KS
   columns, then W = Y^T C, Z = T^T W, C := C - Y Z on each trailing
   column C.  Y holds the panel's reflectors, TAU their 1/B (0 when
   B = 0), T the factor in Q = I - Y T Y^T.  Scalars are REAL by
   initial. *)
let compact_wy =
  {|BLOCK DO K = 1, N
  IN K DO KK
    S = 0.0
    DO I = KK, M
      S = S + A(I, KK)*A(I, KK)
    END DO
    RNRM = SQRT(S)
    Y(KK, KK) = A(KK, KK) + RNRM
    DO I = KK + 1, M
      Y(I, KK) = A(I, KK)
    END DO
    B = RNRM*(RNRM + A(KK, KK))
    TAU(KK) = 0.0
    IF (B .NE. 0.0) THEN
      TAU(KK) = 1.0/B
      DO J = KK, LAST(K)
        S2 = 0.0
        DO I = KK, M
          S2 = S2 + Y(I, KK)*A(I, J)
        END DO
        DO I = KK, M
          A(I, J) = A(I, J) - Y(I, KK)*(S2/B)
        END DO
      END DO
    END IF
    T(KK - K + 1, KK - K + 1) = TAU(KK)
    IN K DO JJ = K, KK - 1
      S = 0.0
      DO I = KK, M
        S = S + Y(I, JJ)*Y(I, KK)
      END DO
      W(JJ) = S
    END DO
    IN K DO II = K, KK - 1
      S = 0.0
      IN K DO JJ = II, KK - 1
        S = S + T(II - K + 1, JJ - K + 1)*W(JJ)
      END DO
      T(II - K + 1, KK - K + 1) = -TAU(KK)*S
    END DO
  END DO
  DO J = MAX(LAST(K) + 1, K + 1), N     ! K + 1 proves A(I, J) in bounds
    IN K DO KK
      S = 0.0
      DO I = KK, M
        S = S + Y(I, KK)*A(I, J)
      END DO
      W(KK) = S
    END DO
    IN K DO KK
      S = 0.0
      IN K DO II = K, KK
        S = S + T(II - K + 1, KK - K + 1)*W(II)
      END DO
      Z(KK) = S
    END DO
    IN K DO KK
      DO I = KK, M
        A(I, J) = A(I, J) - Y(I, KK)*Z(KK)
      END DO
    END DO
  END DO
END DO
|}

let rec render indent buf s =
  let pad = String.make indent ' ' in
  let line l = Buffer.add_string buf (pad ^ l ^ "\n") in
  match s with
  | Exec stmt ->
      String.split_on_char '\n' (Stmt.to_string stmt)
      |> List.iter (fun l -> if l <> "" then line l)
  | Do { index; lo; hi; body } ->
      line
        (Printf.sprintf "DO %s = %s, %s" index (Expr.to_string lo)
           (Expr.to_string hi));
      List.iter (render (indent + 2) buf) body;
      line "END DO"
  | Block_do { index; lo; hi; body } ->
      line
        (Printf.sprintf "BLOCK DO %s = %s, %s" index (Expr.to_string lo)
           (Expr.to_string hi));
      List.iter (render (indent + 2) buf) body;
      line "END DO"
  | In_do { block_index; index; bounds; body } ->
      (match bounds with
      | None -> line (Printf.sprintf "IN %s DO %s" block_index index)
      | Some (lo, hi) ->
          line
            (Printf.sprintf "IN %s DO %s = %s, %s" block_index index
               (Expr.to_string lo) (Expr.to_string hi)));
      List.iter (render (indent + 2) buf) body;
      line "END DO"

let to_string s =
  let buf = Buffer.create 256 in
  render 0 buf s;
  Buffer.contents buf
