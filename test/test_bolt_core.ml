(* BOLT core tests: CFG reconstruction, jump-table discovery, profile
   matching, individual passes, rewriting in both modes, and the
   must-hold invariant that rewritten binaries behave identically. *)

open Bolt_minic
module Machine = Bolt_sim.Machine

let compile ?(options = Driver.default_options) srcs = (Driver.compile ~options srcs).Driver.exe

let profile_of exe ~input =
  let sampling =
    { Machine.event = Machine.Ev_cycles; period = 401; lbr = true; precise = true }
  in
  let o = Machine.run ~sampling exe ~input in
  match o.Machine.profile with
  | Some raw -> Bolt_profile.Perf2bolt.convert exe raw
  | None -> Bolt_profile.Fdata.empty

(* Run registered passes by name, the way the pipeline runs them. *)
let run_passes ctx names =
  Bolt_core.Passman.(
    run (make_env ctx Bolt_profile.Fdata.empty) (List.map find names))

let build_ctx ?(opts = Bolt_core.Opts.default) exe =
  let ctx = Bolt_core.Context.create ~opts exe in
  run_passes ctx [ "build-cfg" ];
  ctx

(* The pass log line [line] was written, and counter [key] reads [n]. *)
let check_logged ctx ~key n line =
  Alcotest.(check int) key n
    (Bolt_obs.Metrics.counter ctx.Bolt_core.Context.stats key);
  Alcotest.(check bool) ("logged: " ^ line) true
    (List.mem line ctx.Bolt_core.Context.log)

let switch_src =
  {| fn classify(x) {
       switch (x % 8) {
         case 0: { return 10; }
         case 1: { return 11; }
         case 2: { return 12; }
         case 3: { return 13; }
         case 4: { return 14; }
         case 5: { return 15; }
         default: { return 0; }
       }
     }
     fn main() {
       var i = 0;
       var s = 0;
       while (i < 4000) { s = s + classify(i); i = i + 1; }
       out s;
       return 0;
     } |}

let test_cfg_reconstruction () =
  let exe = compile [ ("m", switch_src) ] in
  let ctx = build_ctx exe in
  let funcs = Array.length ctx.Bolt_core.Context.funcs in
  let simple = List.length (Bolt_core.Context.simple_funcs ctx) in
  check_logged ctx ~key:"build.funcs" funcs
    (Printf.sprintf "build: %d functions, %d simple" funcs simple);
  let fb = Option.get (Bolt_core.Context.func ctx "classify") in
  Alcotest.(check bool) "simple" true fb.Bolt_core.Bfunc.simple;
  Alcotest.(check bool) "several blocks" true (Array.length fb.Bolt_core.Bfunc.blocks > 5);
  Alcotest.(check int) "one jump table" 1 (Array.length fb.Bolt_core.Bfunc.jts)

let test_pic_jump_table_discovery () =
  (* PIC jump tables leave no relocations: must be discovered by pattern *)
  let exe =
    compile ~options:{ Driver.default_options with pic_jump_tables = true }
      [ ("m", switch_src) ]
  in
  let ctx = build_ctx exe in
  let fb = Option.get (Bolt_core.Context.func ctx "classify") in
  Alcotest.(check int) "table found" 1 (Array.length fb.Bolt_core.Bfunc.jts);
  Alcotest.(check bool) "is pic" true fb.Bolt_core.Bfunc.jts.(0).Bolt_core.Bfunc.jt_pic

let test_abs_jump_table_discovery () =
  let exe =
    compile ~options:{ Driver.default_options with pic_jump_tables = false }
      [ ("m", switch_src) ]
  in
  let ctx = build_ctx exe in
  let fb = Option.get (Bolt_core.Context.func ctx "classify") in
  Alcotest.(check int) "table found" 1 (Array.length fb.Bolt_core.Bfunc.jts);
  Alcotest.(check bool) "not pic" false fb.Bolt_core.Bfunc.jts.(0).Bolt_core.Bfunc.jt_pic

let test_indirect_tail_call_non_simple () =
  (* hand-written assembly with an indirect tail call must be non-simple *)
  let open Bolt_asm.Asm in
  let open Bolt_isa in
  let asm =
    assemble
      {
        empty_unit with
        u_funcs =
          [
            {
              af_name = "dispatcher";
              af_global = true;
              af_align = 16;
              af_emit_fde = false;
              af_body =
                [
                  A_insn (Insn.Lea (Reg.r6, Insn.Sym ("target", 0)));
                  A_insn (Insn.Jmp_ind Reg.r6);
                ];
            };
          ];
      }
  in
  let r =
    Driver.compile
      ~externals:[ ("dispatcher", 1) ]
      ~extra_objs:[ asm ]
      [
        ( "m",
          {| fn target(x) { return x + 1; }
             fn main() { out dispatcher(41); return 0; } |} );
      ]
  in
  let ctx = build_ctx r.Driver.exe in
  let fb = Option.get (Bolt_core.Context.func ctx "dispatcher") in
  Alcotest.(check bool) "non-simple" false fb.Bolt_core.Bfunc.simple;
  (* and the program still works after a full rewrite *)
  let prof = profile_of r.Driver.exe ~input:[||] in
  let exe', _ = Bolt_core.Bolt.optimize r.Driver.exe prof in
  let o = Machine.run exe' ~input:[||] in
  Alcotest.(check (list int)) "works after rewrite" [ 42 ] o.Machine.output

let test_profile_matching () =
  let exe = compile [ ("m", switch_src) ] in
  let prof = profile_of exe ~input:[||] in
  let ctx = build_ctx exe in
  let st = Bolt_core.Match_profile.attach ctx prof in
  Bolt_core.Match_profile.finalize ctx ~lbr:true ~trust_fallthrough:true;
  Alcotest.(check bool) "some branches matched" true (st.Bolt_core.Match_profile.matched_branches > 0);
  let fb = Option.get (Bolt_core.Context.func ctx "classify") in
  Alcotest.(check bool) "exec count" true (fb.Bolt_core.Bfunc.exec_count > 0);
  Alcotest.(check bool) "profile acc high" true (fb.Bolt_core.Bfunc.profile_acc > 0.5)

let test_strip_rep_ret () =
  let exe = compile [ ("m", {| fn main() { out 1; return 0; } |}) ] in
  let ctx = build_ctx exe in
  let repz () =
    List.fold_left
      (fun n (fb : Bolt_core.Bfunc.t) ->
        Array.fold_left
          (fun n (b : Bolt_core.Bfunc.bb) ->
            n
            + List.length
                (List.filter
                   (fun (i : Bolt_core.Bfunc.minsn) ->
                     i.Bolt_core.Bfunc.op = Bolt_isa.Insn.Repz_ret)
                   b.Bolt_core.Bfunc.insns))
          n fb.Bolt_core.Bfunc.blocks)
      0
      (Bolt_core.Context.simple_funcs ctx)
  in
  let before = repz () in
  Alcotest.(check bool) "main returns with repz" true (before > 0);
  run_passes ctx [ "strip-rep-ret" ];
  check_logged ctx ~key:"pass.strip-rep-ret.stripped" before
    (Printf.sprintf "strip-rep-ret: %d returns stripped" before);
  Alcotest.(check int) "no repz left" 0 (repz ())

let test_icf_folds_twins () =
  let src =
    {| fn twin1(x) { return x * 7 + 3; }
       fn twin2(x) { return x * 7 + 3; }
       fn other(x) { return x * 7 + 4; }
       fn main() { out twin1(1) + twin2(2) + other(3); return 0; } |}
  in
  (* compiler would inline these; lower the inliner's enthusiasm *)
  let options =
    {
      Driver.default_options with
      inline_decisions = { Inline.default_decisions with small_threshold = 0; hint_threshold = 0 };
    }
  in
  let exe = compile ~options [ ("m", src) ] in
  let ctx = build_ctx exe in
  let r = Bolt_core.Icf.run ctx in
  Alcotest.(check int) "one pair folded" 1 r.Bolt_core.Icf.folded;
  (* behaviour preserved through the full pipeline *)
  let prof = profile_of exe ~input:[||] in
  let exe', _ = Bolt_core.Bolt.optimize exe prof in
  let a = Machine.run exe ~input:[||] in
  let b = Machine.run exe' ~input:[||] in
  Alcotest.(check (list int)) "same output" a.Machine.output b.Machine.output

(* hot @ cold must be exactly the functions ICF left live, each once,
   whether never-sampled functions go to the cold area or not. *)
let test_reorder_functions_permutation () =
  let src =
    {| fn twin1(x) { return x * 7 + 3; }
       fn twin2(x) { return x * 7 + 3; }
       fn cold(x) { return x * 5 - 1; }
       fn hot(x) { if (x % 3 == 0) { return x + 2; } return x * 2; }
       fn main() {
         var i = 0;
         var s = 0;
         while (i < 3000) { s = s + twin1(i) + twin2(i) + hot(i); i = i + 1; }
         if (s < 0) { s = cold(s); }
         out s;
         return 0;
       } |}
  in
  let options =
    {
      Driver.default_options with
      inline_decisions = { Inline.default_decisions with small_threshold = 0; hint_threshold = 0 };
    }
  in
  let exe = compile ~options [ ("m", src) ] in
  let prof = profile_of exe ~input:[||] in
  List.iter
    (fun split_all_cold ->
      let opts = { Bolt_core.Opts.default with split_all_cold } in
      let ctx = Bolt_core.Context.create ~opts exe in
      Bolt_core.Passman.run (Bolt_core.Passman.make_env ctx prof) Bolt_core.Passman.pre_passes;
      let r = Bolt_core.Icf.run ctx in
      Alcotest.(check int) "twins folded" 1 r.Bolt_core.Icf.folded;
      let live =
        List.filter_map
          (fun (fb : Bolt_core.Bfunc.t) ->
            if fb.folded_into = None then Some fb.fb_name else None)
          (Bolt_core.Context.all_funcs ctx)
      in
      let name i = ctx.Bolt_core.Context.funcs.(i).Bolt_core.Bfunc.fb_name in
      let hot, cold = Bolt_core.Reorder_funcs.run ctx prof in
      let hot = List.map name hot and cold = List.map name cold in
      Alcotest.(check (list string)) "permutation of live" (List.sort compare live)
        (List.sort compare (hot @ cold));
      Alcotest.(check bool) "cold area iff split-all-cold" split_all_cold
        (List.mem "cold" cold))
    [ true; false ]

let test_simplify_ro_loads () =
  let src =
    {| const k = { 100, 200, 300 };
       fn main() { var i = 0; var s = 0; while (i < 100) { s = s + k[1]; i = i + 1; } out s; return 0; } |}
  in
  let exe = compile [ ("m", src) ] in
  let prof = profile_of exe ~input:[||] in
  let opts = { Bolt_core.Opts.none with simplify_ro_loads = true } in
  let exe', _ = Bolt_core.Bolt.optimize ~opts exe prof in
  let a = Machine.run exe ~input:[||] in
  let b = Machine.run exe' ~input:[||] in
  Alcotest.(check (list int)) "same output" a.Machine.output b.Machine.output;
  (* the hot load became an immediate: fewer data accesses *)
  Alcotest.(check bool) "fewer d-accesses" true
    (b.Machine.counters.Machine.l1d_accesses < a.Machine.counters.Machine.l1d_accesses)

let test_plt_pass_removes_indirection () =
  let m1 = {| extern fn callee(x); fn main() { var i = 0; var s = 0; while (i < 500) { s = s + callee(i); i = i + 1; } out s; return 0; } |} in
  let m2 = {| fn callee(x) { return x + 1; } |} in
  let exe = compile [ ("a", m1); ("b", m2) ] in
  let prof = profile_of exe ~input:[||] in
  let opts = { Bolt_core.Opts.none with plt = true } in
  let exe', _ = Bolt_core.Bolt.optimize ~opts exe prof in
  let a = Machine.run exe ~input:[||] in
  let b = Machine.run exe' ~input:[||] in
  Alcotest.(check (list int)) "same output" a.Machine.output b.Machine.output;
  (* calls no longer bounce through the stub: fewer taken branches *)
  Alcotest.(check bool) "fewer taken branches" true
    (b.Machine.counters.Machine.taken_branches < a.Machine.counters.Machine.taken_branches)

let test_icp_promotes () =
  let src =
    {| fn hot(x) { return x + 1; }
       fn cold(x) { return x - 1; }
       fn main() {
         var i = 0;
         var s = 0;
         while (i < 3000) {
           var p = &hot;
           if (i % 64 == 0) { p = &cold; }
           s = s + *p(i);
           i = i + 1;
         }
         out s;
         return 0;
       } |}
  in
  let exe = compile [ ("m", src) ] in
  let prof = profile_of exe ~input:[||] in
  let opts = { Bolt_core.Opts.none with icp = true } in
  let exe', report = Bolt_core.Bolt.optimize ~opts exe prof in
  Alcotest.(check bool) "promoted" true (report.Bolt_core.Bolt.r_icp_promoted >= 1);
  let a = Machine.run exe ~input:[||] in
  let b = Machine.run exe' ~input:[||] in
  Alcotest.(check (list int)) "same output" a.Machine.output b.Machine.output

let test_dyno_stats_taken_branches_drop () =
  (* layout optimization must reduce profile-weighted taken branches *)
  let src =
    {| global acc = 0;
       fn work(x) {
         if (x % 16 < 1) { acc = acc + x * 3; } else { acc = acc + 1; }
         if (x % 8 < 1) { acc = acc + x; } else { acc = acc + 2; }
         return acc;
       }
       fn main() { var i = 0; while (i < 5000) { acc = work(i); i = i + 1; } out acc; return 0; } |}
  in
  let exe = compile [ ("m", src) ] in
  let prof = profile_of exe ~input:[||] in
  let exe', report = Bolt_core.Bolt.optimize exe prof in
  let before = report.Bolt_core.Bolt.r_dyno_before.Bolt_core.Dyno_stats.taken_branches in
  let after = report.Bolt_core.Bolt.r_dyno_after.Bolt_core.Dyno_stats.taken_branches in
  Alcotest.(check bool) "taken branches reduced" true (after < before);
  let a = Machine.run exe ~input:[||] in
  let b = Machine.run exe' ~input:[||] in
  Alcotest.(check (list int)) "same output" a.Machine.output b.Machine.output

let test_inplace_mode () =
  (* without relocations, BOLT rewrites functions in place *)
  let exe =
    compile ~options:{ Driver.default_options with emit_relocs = false } [ ("m", switch_src) ]
  in
  Alcotest.(check int) "no relocs kept" 0 (List.length exe.Bolt_obj.Objfile.relocs);
  let prof = profile_of exe ~input:[||] in
  let exe', _ = Bolt_core.Bolt.optimize exe prof in
  (* function must not move *)
  let a0 = (Option.get (Bolt_obj.Objfile.find_symbol exe "classify")).Bolt_obj.Types.sym_value in
  let a1 = (Option.get (Bolt_obj.Objfile.find_symbol exe' "classify")).Bolt_obj.Types.sym_value in
  Alcotest.(check int) "address unchanged" a0 a1;
  let a = Machine.run exe ~input:[||] in
  let b = Machine.run exe' ~input:[||] in
  Alcotest.(check (list int)) "same output" a.Machine.output b.Machine.output

let test_exceptions_survive_rewrite () =
  let src =
    {| fn risky(x) { if (x % 97 == 13) { throw x; } return x * 2; }
       fn middle(x) { return risky(x) + 1; }
       fn main() {
         var i = 0;
         var s = 0;
         while (i < 2000) {
           try { s = s + middle(i); } catch (e) { s = s - e; }
           i = i + 1;
         }
         out s;
         return 0;
       } |}
  in
  let exe = compile [ ("m", src) ] in
  let prof = profile_of exe ~input:[||] in
  (* full pipeline including split-eh: landing pads move to cold code *)
  let exe', _ = Bolt_core.Bolt.optimize exe prof in
  let a = Machine.run exe ~input:[||] in
  let b = Machine.run ~fuel:200_000_000 exe' ~input:[||] in
  Alcotest.(check (list int)) "same output" a.Machine.output b.Machine.output;
  Alcotest.(check bool) "throws happened" true (a.Machine.counters.Machine.throws > 0)

(* BOLT's ICF folds two functions an exception unwinds through; the
   output's symbol table then holds two names at the survivor's address,
   and the unwinder must find the survivor's frame info whichever name
   owns the return address. *)
let test_icf_folded_unwind () =
  let src =
    {| fn risky(x) { if (x % 97 == 13) { throw x; } return x * 2; }
       fn mid1(x) { return risky(x) + 1; }
       fn mid2(x) { return risky(x) + 1; }
       fn main() {
         var i = 0;
         var s = 0;
         while (i < 2000) {
           try { s = s + mid1(i); } catch (e) { s = s - e; }
           try { s = s + mid2(i); } catch (e) { s = s - e; }
           i = i + 1;
         }
         out s;
         return 0;
       } |}
  in
  List.iter
    (fun emit_relocs ->
      let options =
        {
          Driver.default_options with
          emit_relocs;
          inline_decisions =
            { Inline.default_decisions with small_threshold = 0; hint_threshold = 0 };
        }
      in
      let label = Printf.sprintf "emit_relocs %b" emit_relocs in
      let exe = compile ~options [ ("m", src) ] in
      let prof = profile_of exe ~input:[||] in
      let exe', report = Bolt_core.Bolt.optimize exe prof in
      Alcotest.(check int) (label ^ ": mid1 and mid2 folded") 1
        report.Bolt_core.Bolt.r_icf_folded;
      let a = Machine.run exe ~input:[||] in
      let b = Machine.run ~fuel:200_000_000 exe' ~input:[||] in
      Alcotest.(check bool) (label ^ ": throws happened") true
        (a.Machine.counters.Machine.throws > 0);
      Alcotest.(check bool) (label ^ ": same behaviour") true
        (Bolt_pipeline.Pipeline.same_behaviour a b))
    [ true; false ]

let test_identity_rewrite_preserves_everything () =
  let exe = compile [ ("m", switch_src) ] in
  let prof = profile_of exe ~input:[||] in
  let exe', _ = Bolt_core.Bolt.optimize ~opts:Bolt_core.Opts.none exe prof in
  let a = Machine.run exe ~input:[||] in
  let b = Machine.run exe' ~input:[||] in
  Alcotest.(check (list int)) "same output" a.Machine.output b.Machine.output;
  Alcotest.(check int) "same exit" a.Machine.exit_code b.Machine.exit_code

let test_frame_opts_removes_dead_save () =
  (* after BOLT inlines the callee, the caller's saved register for the
     call result chain may become dead — at minimum the pass must keep
     behaviour identical *)
  let src =
    {| fn big(a, b) {
         var x = a + b;
         var y = a * b;
         var z = x + y;
         var w = x * 2 + y * 3 + z;
         return w + x + y + z;
       }
       fn main() { var i = 0; var s = 0; while (i < 1000) { s = s + big(i, 3); i = i + 1; } out s; return 0; } |}
  in
  let exe = compile [ ("m", src) ] in
  let prof = profile_of exe ~input:[||] in
  let opts = { Bolt_core.Opts.none with frame_opts = true; shrink_wrapping = true } in
  let exe', _ = Bolt_core.Bolt.optimize ~opts exe prof in
  let a = Machine.run exe ~input:[||] in
  let b = Machine.run exe' ~input:[||] in
  Alcotest.(check (list int)) "same output" a.Machine.output b.Machine.output

(* One cold rule for two passes: on split runs of a profiled datacenter
   build and of a program with small functions, split-functions sinks
   exactly the blocks that reorder-bbs projected out as
   [Layout_bbs.sunk_blocks] just before it ran, so a change to the rule
   moves both uses together.  Returns each simple function's size and
   cold blocks. *)
let split_follows_sunk_cold exe prof =
  let ctx = Bolt_core.Context.create ~opts:Bolt_core.Opts.default exe in
  let env = Bolt_core.Passman.make_env ctx prof in
  Bolt_core.Passman.run env Bolt_core.Passman.pre_passes;
  let rec before_reorder = function
    | (p : Bolt_core.Passman.pass) :: rest when p.p_name <> "reorder-bbs" ->
        p :: before_reorder rest
    | _ -> []
  in
  Bolt_core.Passman.run env (before_reorder Bolt_core.Passman.table1);
  let sunk =
    List.map
      (fun (fb : Bolt_core.Bfunc.t) ->
        ( fb.fb_name,
          match Bolt_core.Layout_bbs.sunk_blocks ctx.Bolt_core.Context.opts fb with
          | None -> []
          | Some cold ->
              List.sort compare
                (List.filter_map
                   (fun l -> if cold l then Some fb.blocks.(l).bl else None)
                   (Array.to_list fb.layout)) ))
      (Bolt_core.Context.simple_funcs ctx)
  in
  Bolt_core.Passman.run env
    (List.map Bolt_core.Passman.find [ "reorder-bbs"; "split-functions" ]);
  let split =
    List.map
      (fun (name, _) ->
        let fb = Option.get (Bolt_core.Context.func ctx name) in
        ( name,
          List.sort compare
            (List.map
               (fun l -> fb.Bolt_core.Bfunc.blocks.(l).bl)
               (Bolt_core.Bfunc.cold_layout fb)) ))
      sunk
  in
  Alcotest.(check (list (pair string (list string)))) "cold blocks = sunk_blocks" sunk split;
  List.map
    (fun (name, cold) -> ((Option.get (Bolt_core.Context.func ctx name)).fb_size, cold))
    split

let test_split_follows_sunk_cold () =
  let module P = Bolt_pipeline.Pipeline in
  let w = Bolt_workloads.Gen.gen Test_asm_link.small_hhvm in
  let b = P.compile ~externals:w.externals ~extra_objs:w.extra_objs w.sources in
  let small =
    compile
      ~options:
        {
          Driver.default_options with
          inline_decisions = { Inline.default_decisions with small_threshold = 0; hint_threshold = 0 };
        }
      [
        ( "m",
          {| fn pick(x) { if (x < 0) { return 0 - x; } return x + 1; }
             fn main() {
               var i = 0;
               var s = 0;
               while (i < 3000) { s = s + pick(i); i = i + 1; }
               out s;
               return 0;
             } |} );
      ]
  in
  let split =
    split_follows_sunk_cold b.P.exe (fst (P.profile b ~input:w.input))
    @ split_follows_sunk_cold small (profile_of small ~input:[||])
  in
  Alcotest.(check bool) "a function over 256 bytes split" true
    (List.exists (fun (size, cold) -> size > 256 && cold <> []) split);
  Alcotest.(check bool) "a function of at most 256 bytes split" true
    (List.exists (fun (size, cold) -> size <= 256 && cold <> []) split)

let suite =
  [
    Alcotest.test_case "cfg-reconstruction" `Quick test_cfg_reconstruction;
    Alcotest.test_case "jt-discovery-pic" `Quick test_pic_jump_table_discovery;
    Alcotest.test_case "jt-discovery-abs" `Quick test_abs_jump_table_discovery;
    Alcotest.test_case "indirect-tail-call" `Quick test_indirect_tail_call_non_simple;
    Alcotest.test_case "profile-matching" `Quick test_profile_matching;
    Alcotest.test_case "strip-rep-ret" `Quick test_strip_rep_ret;
    Alcotest.test_case "icf" `Quick test_icf_folds_twins;
    Alcotest.test_case "reorder-functions-permutation" `Quick
      test_reorder_functions_permutation;
    Alcotest.test_case "simplify-ro-loads" `Quick test_simplify_ro_loads;
    Alcotest.test_case "plt-pass" `Quick test_plt_pass_removes_indirection;
    Alcotest.test_case "icp" `Quick test_icp_promotes;
    Alcotest.test_case "dyno-stats" `Quick test_dyno_stats_taken_branches_drop;
    Alcotest.test_case "inplace-mode" `Quick test_inplace_mode;
    Alcotest.test_case "exceptions-survive" `Quick test_exceptions_survive_rewrite;
    Alcotest.test_case "icf-folded-unwind" `Quick test_icf_folded_unwind;
    Alcotest.test_case "identity-rewrite" `Quick test_identity_rewrite_preserves_everything;
    Alcotest.test_case "frame-opts" `Quick test_frame_opts_removes_dead_save;
    Alcotest.test_case "split-follows-sunk-cold" `Quick test_split_follows_sunk_cold;
  ]
