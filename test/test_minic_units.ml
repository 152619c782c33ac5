(* MiniC front-end/middle-end unit tests: lexer, parser, sema errors,
   IR cleanup invariants, PGO instrumentation and the inliner. *)

open Bolt_minic

let parse src = Parser.parse_module ~name:"t" ~file:"t.mc" src

let test_lexer_tokens () =
  let lx = Lexer.create ~file:"t" "fn f(x) { return x <= 42; } // comment" in
  let rec collect acc =
    match Lexer.token lx with
    | Lexer.EOF -> List.rev acc
    | t ->
        Lexer.advance lx;
        collect (Lexer.token_desc t :: acc)
  in
  Alcotest.(check (list string)) "tokens"
    [ "fn"; "f"; "("; "x"; ")"; "{"; "return"; "x"; "<="; "42"; ";"; "}" ]
    (collect [])

let test_lexer_error () =
  let lx = Lexer.create ~file:"t" "fn f() { @ }" in
  match
    let rec go () =
      match Lexer.token lx with
      | Lexer.EOF -> ()
      | _ ->
          Lexer.advance lx;
          go ()
    in
    go ()
  with
  | () -> Alcotest.fail "expected Lex_error"
  | exception Lexer.Lex_error _ -> ()

let test_parser_precedence () =
  let m = parse "fn main() { out 1 + 2 * 3 == 7 && 1 < 2; }" in
  match m.Ast.m_decls with
  | [ Ast.Dfunc f ] -> (
      match f.Ast.fn_body with
      | [ { sk = Ast.Sout (Ast.Ebin (Ast.Bland, Ast.Ebin (Ast.Beq, _, _), Ast.Ebin (Ast.Blt, _, _))); _ } ] ->
          ()
      | _ -> Alcotest.fail "unexpected parse")
  | _ -> Alcotest.fail "unexpected decls"

let test_parser_error_position () =
  match parse "fn main() {\n  var x = ;\n}" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception Parser.Parse_error (_, line) -> Alcotest.(check int) "line" 2 line

let sema_fails src =
  match Sema.check [ parse src ] with
  | _ -> Alcotest.fail "expected Sema_error"
  | exception Sema.Sema_error _ -> ()

let test_sema_errors () =
  sema_fails "fn main() { out y; }";
  sema_fails "fn main() { foo(1); }";
  sema_fails "fn f(a) { return a; } fn main() { out f(1, 2); }";
  sema_fails "fn f(a,b,c,d,e) { return a; } fn main() { out f(1,2,3,4,5); }";
  sema_fails "fn main() { break; }";
  sema_fails "const t = { 1, 2 }; fn main() { t[0] = 5; }";
  sema_fails "fn f() { return 1; } fn f() { return 2; } fn main() { out f(); }";
  sema_fails "fn notmain() { return 0; }" (* no main *)

let test_sema_externals () =
  let m = parse "fn main() { out asmfn(1); }" in
  (match Sema.check [ m ] with
  | _ -> Alcotest.fail "unknown function should fail"
  | exception Sema.Sema_error _ -> ());
  ignore (Sema.check ~externals:[ ("asmfn", 1) ] [ m ])

let lower src =
  let m = parse src in
  let genv = Sema.check [ m ] in
  Lower.lower_program genv [ m ]

(* IR invariant: every terminator's targets are blocks of the function. *)
let check_cfg_closed (f : Ir.func) =
  let ok = ref true in
  List.iter
    (fun (_, b) ->
      List.iter
        (fun s -> if not (List.mem_assoc s f.Ir.f_blocks) then ok := false)
        (Ir.successors b.Ir.term);
      match b.Ir.lp with
      | Some l -> if not (List.mem_assoc l f.Ir.f_blocks) then ok := false
      | None -> ())
    f.Ir.f_blocks;
  !ok

let tricky_src =
  {| global g = 0;
     fn main() {
       var i = 0;
       while (i < 10) {
         if (i % 2 == 0 && i > 2 || i == 1) { g = g + 1; } else { g = g + 2; }
         switch (i % 4) {
           case 0: { g = g * 2; }
           case 1: { g = g - 1; }
           case 2: { if (g > 100) { break; } g = g + 3; }
           default: { continue; }
         }
         try { if (g % 7 == 0) { throw g; } } catch (e) { g = e + 1; }
         i = i + 1;
       }
       out g;
     } |}

let test_lower_cfg_closed () =
  let p = lower tricky_src in
  List.iter
    (fun f -> Alcotest.(check bool) (f.Ir.f_name ^ " closed") true (check_cfg_closed f))
    p.Ir.p_funcs

let test_cleanup_preserves_closure () =
  let p = lower tricky_src in
  Irpass.cleanup p;
  List.iter
    (fun f ->
      Alcotest.(check bool) "still closed" true (check_cfg_closed f);
      (* entry still present *)
      Alcotest.(check bool) "entry block" true (List.mem_assoc f.Ir.f_entry f.Ir.f_blocks))
    p.Ir.p_funcs

let test_constant_folding () =
  let p = lower "fn main() { var x = 2 + 3 * 4; if (x == 14) { out 1; } else { out 2; } }" in
  Irpass.cleanup p;
  let main = List.hd p.Ir.p_funcs in
  (* the branch must be folded away: only the out 1 path remains *)
  let has_branch =
    List.exists
      (fun (_, b) -> match b.Ir.term with Ir.Tbr _ -> true | _ -> false)
      main.Ir.f_blocks
  in
  Alcotest.(check bool) "branch folded" false has_branch

let test_instrumentation_counts_edges () =
  let p = lower "fn main() { var i = 0; while (i < 5) { i = i + 1; } out i; }" in
  Irpass.cleanup p;
  let mapping = Pgo.instrument p in
  Alcotest.(check bool) "counters assigned" true (Pgo.num_counters mapping >= 2);
  (* every counter is attached somewhere in the IR *)
  let found = Hashtbl.create 16 in
  List.iter
    (fun f ->
      List.iter
        (fun (_, b) ->
          List.iter
            (fun (i, _) ->
              match i with Ir.Iprofcnt k -> Hashtbl.replace found k () | _ -> ())
            b.Ir.insns)
        f.Ir.f_blocks)
    p.Ir.p_funcs;
  List.iter
    (fun (_, _, _, k) ->
      Alcotest.(check bool) (Printf.sprintf "counter %d placed" k) true (Hashtbl.mem found k))
    mapping

let test_inline_scales_profile () =
  let src =
    {| fn tiny(x) { if (x > 0) { return 1; } return 2; }
       fn main() { out tiny(5); } |}
  in
  let p = lower src in
  Irpass.cleanup p;
  (* annotate a fake profile on tiny and on main's entry *)
  let tiny = List.find (fun f -> f.Ir.f_name = "tiny") p.Ir.p_funcs in
  let edges = List.concat_map (fun (l, b) -> List.map (fun s -> (l, s)) (Ir.successors b.Ir.term)) tiny.Ir.f_blocks in
  List.iter (fun (a, b) -> Hashtbl.replace tiny.Ir.f_edge_counts (a, b) 100) edges;
  let n = Inline.run ~cross_module:true ~decisions:{ Inline.default_decisions with small_threshold = 50 } p in
  Alcotest.(check bool) "inlined" true (n >= 1);
  let main = List.find (fun f -> f.Ir.f_name = "main") p.Ir.p_funcs in
  Alcotest.(check bool) "main grew" true (List.length main.Ir.f_blocks > 1)

let suite =
  [
    Alcotest.test_case "lexer-tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer-error" `Quick test_lexer_error;
    Alcotest.test_case "parser-precedence" `Quick test_parser_precedence;
    Alcotest.test_case "parser-error-line" `Quick test_parser_error_position;
    Alcotest.test_case "sema-errors" `Quick test_sema_errors;
    Alcotest.test_case "sema-externals" `Quick test_sema_externals;
    Alcotest.test_case "lower-cfg-closed" `Quick test_lower_cfg_closed;
    Alcotest.test_case "cleanup-closed" `Quick test_cleanup_preserves_closure;
    Alcotest.test_case "constant-folding" `Quick test_constant_folding;
    Alcotest.test_case "instrumentation" `Quick test_instrumentation_counts_edges;
    Alcotest.test_case "inline" `Quick test_inline_scales_profile;
  ]
