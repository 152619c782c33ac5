(* Profile pipeline (fdata, perf2bolt) and function-ordering tests. *)

module F = Bolt_profile.Fdata

let sample_profile =
  {
    F.lbr = true;
    header = None;
    branches =
      [
        { F.br_from_func = "a"; br_from_off = 10; br_to_func = "b"; br_to_off = 0; br_count = 100L; br_mispreds = 3L };
        { F.br_from_func = "b"; br_from_off = 4; br_to_func = "b"; br_to_off = 20; br_count = 50L; br_mispreds = 1L };
        { F.br_from_func = "c"; br_from_off = 2; br_to_func = "a"; br_to_off = 0; br_count = 7L; br_mispreds = 0L };
      ];
    ranges = [ { F.rg_func = "b"; rg_start = 0; rg_end = 30; rg_count = 44L } ];
    samples = [ { F.sm_func = "c"; sm_off = 8; sm_count = 5L } ];
    total_samples = 162L;
    fingerprints = [];
  }

let test_fdata_roundtrip () =
  let path = Filename.temp_file "bolt" ".fdata" in
  F.save path sample_profile;
  let p = F.load path in
  Sys.remove path;
  Alcotest.(check int) "branches" 3 (List.length p.F.branches);
  Alcotest.(check int) "ranges" 1 (List.length p.F.ranges);
  Alcotest.(check int) "samples" 1 (List.length p.F.samples);
  Alcotest.(check bool) "lbr flag" true p.F.lbr;
  Alcotest.(check bool) "identical records" true (p.F.branches = sample_profile.F.branches)

let test_func_events () =
  let h = F.func_events sample_profile in
  Alcotest.(check int64) "a events" 100L (Hashtbl.find h "a");
  Alcotest.(check int64) "b events" 94L (Hashtbl.find h "b");
  Alcotest.(check int64) "c events" 12L (Hashtbl.find h "c")

let test_perf2bolt_resolution () =
  (* build a tiny exe and resolve absolute sample addresses *)
  let exe =
    (Bolt_minic.Driver.compile
       [ ("m", {| fn helper(x) { return x + 1; }
                  fn main() { out helper(1); return 0; } |}) ])
      .Bolt_minic.Driver.exe
  in
  let raw = Bolt_sim.Machine.new_raw_profile true in
  let main_sym = Option.get (Bolt_obj.Objfile.find_symbol exe "main") in
  let helper_sym = Option.get (Bolt_obj.Objfile.find_symbol exe "helper") in
  Hashtbl.replace raw.Bolt_sim.Machine.rp_branches
    (main_sym.sym_value + 4, helper_sym.sym_value)
    (ref 9, ref 1);
  (* a branch to an unmapped address must be dropped *)
  Hashtbl.replace raw.Bolt_sim.Machine.rp_branches (12345, 777) (ref 3, ref 0);
  let f = Bolt_profile.Perf2bolt.convert exe raw in
  Alcotest.(check int) "one resolved record" 1 (List.length f.F.branches);
  let b = List.hd f.F.branches in
  Alcotest.(check string) "from func" "main" b.F.br_from_func;
  Alcotest.(check int) "from off" 4 b.F.br_from_off;
  Alcotest.(check string) "to func" "helper" b.F.br_to_func;
  Alcotest.(check int) "to off" 0 b.F.br_to_off

(* ---- call graph + ordering ---- *)

module CG = Bolt_hfsort.Callgraph
module O = Bolt_hfsort.Order

let mk_graph edges sizes samples =
  CG.of_calls ~funcs:sizes
    ~samples:(fun n ->
      List.fold_left (fun a (m, c) -> if m = n then a + c else a) 0 samples)
    edges

let test_c3_clusters_hot_pair () =
  (* a hot caller/callee pair must be adjacent, hot code before cold *)
  let g =
    mk_graph
      [ ("main", "hot", 1000); ("main", "cold", 1) ]
      [ ("main", 64); ("hot", 64); ("cold", 64); ("never", 64) ]
      [ ("main", 500); ("hot", 1000); ("cold", 1) ]
  in
  let order = O.order O.C3 g ~original:[ "never"; "cold"; "hot"; "main" ] in
  let idx n = Option.get (List.find_index (( = ) n) order) in
  Alcotest.(check bool) "hot before cold" true (idx "hot" < idx "cold");
  Alcotest.(check bool) "hot adjacent to main" true (abs (idx "hot" - idx "main") = 1);
  Alcotest.(check bool) "never-sampled last" true (idx "never" = List.length order - 1)

let test_c3_page_budget () =
  (* a callee too large to fit the page budget is not merged *)
  let g =
    mk_graph
      [ ("a", "big", 100) ]
      [ ("a", 100); ("big", 100_000) ]
      [ ("a", 10); ("big", 10) ]
  in
  let order = O.order O.C3 g ~original:[ "a"; "big" ] in
  Alcotest.(check int) "both present" 2 (List.length order)

let test_orders_complete () =
  let g =
    mk_graph
      [ ("m", "x", 5); ("m", "y", 3); ("x", "y", 2) ]
      [ ("m", 32); ("x", 32); ("y", 32); ("z", 32) ]
      [ ("m", 9); ("x", 5); ("y", 3) ]
  in
  let original = [ "m"; "x"; "y"; "z" ] in
  List.iter
    (fun algo ->
      let order = O.order algo g ~original in
      Alcotest.(check int) "complete permutation" 4 (List.length order);
      List.iter
        (fun n -> Alcotest.(check bool) n true (List.mem n order))
        original)
    [ O.C3; O.Hfsort_plus; O.Pettis_hansen ]

let test_callgraph_from_profile () =
  let g =
    CG.of_profile ~funcs:[ ("a", 10); ("b", 10); ("c", 10) ] sample_profile
  in
  (* a->b is a call (to_off = 0); b->b intra is not a call edge *)
  Alcotest.(check bool) "a->b edge" true (CG.weight g "a" "b" > 0);
  Alcotest.(check bool) "no b->b call edge" false (CG.weight g "b" "b" > 0);
  Alcotest.(check bool) "c->a edge" true (CG.weight g "c" "a" > 0)

let test_non_lbr_callgraph () =
  let prof = { sample_profile with F.lbr = false; branches = [] } in
  let g =
    CG.of_samples_and_calls
      ~funcs:[ ("a", 10); ("b", 10); ("c", 10) ]
      ~direct_calls:[ ("c", 6, "a"); ("a", 2, "b") ]
      prof
  in
  (* the call at c+6 picks up the IP samples at c+8 *)
  Alcotest.(check bool) "weighted by nearby samples" true (CG.weight g "c" "a" >= 5);
  Alcotest.(check bool) "unsampled call still gets weight 1" true
    (CG.weight g "a" "b" = 1)

let order_is_permutation =
  QCheck.Test.make ~name:"orderings are permutations of the input" ~count:50
    (QCheck.make
       QCheck.Gen.(
         let node = int_range 0 15 in
         list_size (int_range 0 40) (triple node node (int_range 1 100))))
    (fun edges ->
      let names = List.init 16 (fun i -> Printf.sprintf "n%d" i) in
      let g =
        CG.of_calls
          ~funcs:(List.map (fun n -> (n, 32)) names)
          ~samples:(fun _ -> 1)
          (List.map
             (fun (a, b, w) -> (Printf.sprintf "n%d" a, Printf.sprintf "n%d" b, w))
             edges)
      in
      List.for_all
        (fun algo ->
          let o = O.order algo g ~original:names in
          List.length o = 16 && List.sort compare o = List.sort compare names)
        [ O.C3; O.Hfsort_plus; O.Pettis_hansen ])

(* ---- the profile view against the name-keyed readers ---- *)

module Bfunc = Bolt_core.Bfunc
module Ctx = Bolt_core.Context
module Types = Bolt_obj.Types
module Fdata = Bolt_profile.Fdata

(* A random function: simple or not, blocks at increasing offsets from
   0 or 1 (so an offset can precede every block), terminators naming its
   own blocks (mostly falling through to the next one, so fall-through
   ranges add edges), an occasional synthesized block, and slack bytes
   after the last block. *)
type fn_spec = {
  fs_simple : bool;
  fs_first : int;
  fs_blocks : (int * Bfunc.term) list; (* size, terminator *)
  fs_synth : bool;
  fs_slack : int;
  fs_folded : bool; (* folded by ICF before reorder-functions *)
}

let lbl off = Printf.sprintf ".LBB%d" off

(* Start offsets: the first at [first], each next one past the previous
   one's size. *)
let starts first sizes =
  List.rev (snd (List.fold_left (fun (o, acc) sz -> (o + sz, o :: acc)) (first, []) sizes))

let gen_fn =
  let open QCheck.Gen in
  let* nb = int_range 1 6 in
  let* sizes = list_repeat nb (int_range 1 12) in
  let* first = frequency [ (4, return 0); (1, return 1) ] in
  let any = int_bound (nb - 1) in
  let term k =
    let next = if k + 1 < nb then k + 1 else k in
    frequency
      [
        (4, map (fun t -> Bfunc.T_cond (Bolt_isa.Cond.Eq, t, next)) any);
        (2, return (Bfunc.T_jump next));
        (1, map (fun t -> Bfunc.T_jump t) any);
        (1, map2 (fun a b -> Bfunc.T_cond (Bolt_isa.Cond.Lt, a, b)) any any);
        (1, return (Bfunc.T_condtail (Bolt_isa.Cond.Ne, "f0", next)));
        (1, return (Bfunc.T_indirect None));
        (1, return Bfunc.T_stop);
      ]
  in
  let* terms = flatten_l (List.init nb term) in
  let+ simple = frequency [ (5, return true); (1, return false) ]
  and+ synth = frequency [ (5, return false); (1, return true) ]
  and+ slack = int_range 0 3
  and+ folded = frequency [ (4, return false); (1, return true) ] in
  {
    fs_simple = simple;
    fs_first = first;
    fs_blocks = List.combine sizes terms;
    fs_synth = synth;
    fs_slack = slack;
    fs_folded = folded;
  }

let fn_size f =
  List.fold_left (fun a (sz, _) -> a + sz) f.fs_first f.fs_blocks + f.fs_slack

(* Names a profile may carry: the functions f0.., a name the binary
   lacks, a symbol that is not a function, and the stale matcher's
   synthetic caller. *)
let gen_name n =
  QCheck.Gen.(
    frequency
      [
        (12, map (fun i -> Printf.sprintf "f%d" i) (int_bound n));
        (1, return "gone");
        (1, return "data_sym");
        (1, return Bolt_profile.Stale_match.ghost_caller);
      ])

let gen_count =
  QCheck.Gen.(
    frequency
      [
        (2, return 0L);
        (8, map Int64.of_int (int_range 1 1000));
        (1, map (fun d -> Int64.sub Int64.max_int (Int64.of_int d)) (int_range 0 2));
        (1, map (fun d -> Int64.add (Int64.of_int max_int) (Int64.of_int d)) (int_range (-1) 1));
      ])

(* Offsets: block starts, points inside blocks, and past either end. *)
let gen_off = QCheck.Gen.(frequency [ (3, int_range 0 12); (1, int_range (-1) 40) ])

let gen_profile n =
  let open QCheck.Gen in
  let name = gen_name n in
  let branch =
    let* from_func = name in
    let* to_func = frequency [ (3, return from_func); (2, name) ] in
    let+ from_off = gen_off
    and+ to_off = frequency [ (2, return 0); (3, gen_off) ]
    and+ br_count = gen_count
    and+ br_mispreds = gen_count in
    Fdata.
      { br_from_func = from_func; br_from_off = from_off; br_to_func = to_func;
        br_to_off = to_off; br_count; br_mispreds }
  in
  let range =
    let+ rg_func = name and+ rg_start = gen_off and+ len = int_range (-2) 20
    and+ rg_count = gen_count in
    { Fdata.rg_func; rg_start; rg_end = rg_start + len; rg_count }
  in
  let sample =
    let+ sm_func = name and+ sm_off = gen_off and+ sm_count = gen_count in
    { Fdata.sm_func; sm_off; sm_count }
  in
  (* drawn with replacement from small pools, so records repeat *)
  let pick pool = if pool = [] then return [] else list_size (int_range 0 24) (oneofl pool) in
  let* bs = list_size (int_range 0 10) branch
  and* rs = list_size (int_range 0 5) range
  and* ss = list_size (int_range 0 5) sample
  and* lbr = bool in
  let+ branches = pick bs and+ ranges = pick rs and+ samples = pick ss in
  { Fdata.empty with lbr; branches; ranges; samples }

(* A context over [fns], named f0.. in address order, with every CFG as
   build-cfg would leave it.  Built afresh for each reader. *)
let context_of fns =
  let base = 0x1000 in
  let addrs = starts base (List.map (fun f -> fn_size f + 16) fns) in
  let symbols =
    List.mapi
      (fun i (f, addr) ->
        { Types.sym_name = Printf.sprintf "f%d" i; sym_kind = Types.Func;
          sym_bind = Types.Global; sym_section = ".text"; sym_value = addr;
          sym_size = fn_size f })
      (List.combine fns addrs)
    @ [ { Types.sym_name = "data_sym"; sym_kind = Types.Object; sym_bind = Types.Global;
          sym_section = ".text"; sym_value = base; sym_size = 0 } ]
  in
  let text_size = 0x4000 in
  let text =
    { Types.sec_name = ".text"; sec_kind = Types.Text; sec_addr = base;
      sec_data = Bytes.make text_size '\x00'; sec_size = text_size }
  in
  let exe =
    { (Bolt_obj.Objfile.empty Bolt_obj.Objfile.Executable) with
      Bolt_obj.Objfile.sections = [ text ]; symbols }
  in
  let ctx = Ctx.create ~opts:Bolt_core.Opts.default exe in
  Ctx.set_funcs ctx
    (Array.of_list
       (List.mapi
          (fun i (f, addr) ->
            let name = Printf.sprintf "f%d" i in
            let fb = Bfunc.create ~name ~addr ~size:(fn_size f) in
            if not f.fs_simple then Bfunc.mark_non_simple fb "generated";
            let offs = starts f.fs_first (List.map fst f.fs_blocks) in
            let cfi_entry = Types.initial_cfi_state in
            let built =
              List.map2
                (fun off (_, term) -> Bfunc.new_block ~off ~cfi_entry (lbl off) [] term)
                offs f.fs_blocks
            in
            let synth =
              if f.fs_synth then [ Bfunc.new_block ~cfi_entry ".Lsynth" [] Bfunc.T_stop ]
              else []
            in
            fb.blocks <- Array.of_list (built @ synth);
            fb.layout <- Array.init (List.length built) Fun.id;
            fb)
          (List.combine fns addrs)));
  ctx

(* Call weights saturate at [max_int] like every other count: two
   [Int64.max_int] calls a -> b weigh [max_int], not -2, in the graph
   read from the records, in the one read from the profile view, and in
   the non-LBR graph weighted by samples near the call sites. *)
let test_call_weights_saturate () =
  let call =
    { F.br_from_func = "f0"; br_from_off = 0; br_to_func = "f1"; br_to_off = 0;
      br_count = Int64.max_int; br_mispreds = 0L }
  in
  let prof = { F.empty with F.lbr = true; branches = [ call; call ] } in
  let funcs = [ ("f0", 8); ("f1", 8) ] in
  let g = CG.of_profile ~funcs prof in
  Alcotest.(check int) "records: weight" max_int (CG.weight g "f0" "f1");
  Alcotest.(check int) "records: caller samples" max_int (CG.samples g "f0");
  let fn =
    { fs_simple = true; fs_first = 0; fs_blocks = [ (8, Bfunc.T_stop) ]; fs_synth = false;
      fs_slack = 0; fs_folded = false }
  in
  let ctx = context_of [ fn; fn ] in
  ignore (Bolt_core.Match_profile.attach ctx prof);
  let g = Bolt_core.Reorder_funcs.lbr_callgraph ctx ~funcs:(Ctx.all_funcs ctx) in
  Alcotest.(check int) "view: weight" max_int (CG.weight g "f0" "f1");
  Alcotest.(check int) "view: caller samples" max_int (CG.samples g "f0");
  let sample off = { F.sm_func = "f0"; sm_off = off; sm_count = Int64.max_int } in
  let prof = { F.empty with F.lbr = false; samples = [ sample 8; sample 8; sample 9 ] } in
  let g =
    CG.of_samples_and_calls ~funcs ~direct_calls:[ ("f0", 2, "f1"); ("f0", 6, "f1") ] prof
  in
  Alcotest.(check int) "non-LBR: weight" max_int (CG.weight g "f0" "f1")

(* finalize's non-LBR split of a count near [max_int]: every function
   finalizes, nothing raises, and each share stays within [0, the
   block's count].  Each block of f0..f2 holds one sample of [max_int];
   block 0 branches to blocks 2 and 1, whose weights (count + 1) would
   each wrap to [min_int] and their total to 0 in plain arithmetic. *)
let test_sample_split_saturates () =
  let fn =
    { fs_simple = true; fs_first = 0;
      fs_blocks =
        [ (8, Bfunc.T_cond (Bolt_isa.Cond.Eq, 2, 1)); (8, Bfunc.T_jump 2); (8, Bfunc.T_stop) ];
      fs_synth = false; fs_slack = 0; fs_folded = false }
  in
  let fns = [ fn; fn; fn ] in
  let ctx = context_of fns in
  let big = Int64.of_int max_int in
  Alcotest.(check int64) "count" 4611686018427387903L big;
  let samples =
    List.concat_map
      (fun i ->
        List.map
          (fun off -> { F.sm_func = Printf.sprintf "f%d" i; sm_off = off; sm_count = big })
          [ 0; 8; 16 ])
      [ 0; 1; 2 ]
  in
  let prof = { F.empty with F.lbr = false; samples } in
  ignore (Bolt_core.Match_profile.attach ctx prof);
  Bolt_core.Match_profile.finalize ctx ~lbr:false ~trust_fallthrough:true;
  List.iter
    (fun (fb : Bfunc.t) ->
      let b0 = fb.blocks.(0) and b1 = fb.blocks.(1) in
      Alcotest.(check int) (fb.fb_name ^ ": entry count") max_int fb.exec_count;
      List.iter
        (fun d ->
          let e = Bfunc.edge_count b0 d in
          Alcotest.(check bool)
            (Printf.sprintf "%s: share 0 -> %d within [0, %d]" fb.fb_name d b0.ecount)
            true
            (e >= 0 && e <= b0.ecount))
        [ 1; 2 ];
      Alcotest.(check int) (fb.fb_name ^ ": 1 -> 2") b1.ecount (Bfunc.edge_count b1 2))
    (Ctx.all_funcs ctx)

(* attach and finalize sum every count saturating at [max_int].  Two
   [Int64.max_int] non-LBR samples on f0's entry block leave it, and the
   entry count, at [max_int] (plain sums wrap the block to -2, which
   finalize reads as 0, entry count 0).  With LBR, two such records on
   one edge, two ranges over one block and two calls saturate alike, and
   so does finalize's inflow into a block two such edges enter. *)
let test_attach_sums_saturate () =
  let big = Int64.max_int in
  let fn blocks =
    { fs_simple = true; fs_first = 0; fs_blocks = blocks; fs_synth = false; fs_slack = 0;
      fs_folded = false }
  in
  let ctx = context_of [ fn [ (8, Bfunc.T_jump 1); (8, Bfunc.T_stop) ] ] in
  let sample = { F.sm_func = "f0"; sm_off = 0; sm_count = big } in
  ignore (Bolt_core.Match_profile.attach ctx { F.empty with F.lbr = false; samples = [ sample; sample ] });
  Bolt_core.Match_profile.finalize ctx ~lbr:false ~trust_fallthrough:true;
  let f0 = ctx.Ctx.funcs.(0) in
  Alcotest.(check int) "non-LBR: entry block count" max_int f0.blocks.(0).ecount;
  Alcotest.(check int) "non-LBR: entry count" max_int f0.exec_count;
  let diamond =
    fn [ (8, Bfunc.T_cond (Bolt_isa.Cond.Eq, 2, 1)); (8, Bfunc.T_jump 2); (8, Bfunc.T_stop) ]
  in
  let ctx = context_of [ diamond; diamond ] in
  let br from_off to_func to_off =
    { F.br_from_func = "f0"; br_from_off = from_off; br_to_func = to_func; br_to_off = to_off;
      br_count = big; br_mispreds = big }
  in
  let range = { F.rg_func = "f0"; rg_start = 0; rg_end = 7; rg_count = big } in
  let prof =
    { F.empty with
      F.lbr = true;
      branches = [ br 0 "f0" 16; br 0 "f0" 16; br 8 "f0" 16; br 0 "f1" 0; br 0 "f1" 0 ];
      ranges = [ range; range ] }
  in
  ignore (Bolt_core.Match_profile.attach ctx prof);
  let f0 = ctx.Ctx.funcs.(0) and f1 = ctx.Ctx.funcs.(1) in
  (match Bfunc.find_edge f0.blocks.(0) 2 with
  | Some e ->
      Alcotest.(check int) "LBR: edge count" max_int e.count;
      Alcotest.(check int) "LBR: edge mispredictions" max_int e.mispreds
  | None -> Alcotest.fail "no edge 0 -> 2");
  Alcotest.(check int) "LBR: ranged block count" max_int f0.blocks.(0).ecount;
  Alcotest.(check int) "LBR: callee entry count" max_int f1.exec_count;
  Bolt_core.Match_profile.finalize ctx ~lbr:true ~trust_fallthrough:true;
  Alcotest.(check int) "LBR: block entered by two edges" max_int f0.blocks.(2).ecount

(* hfsort+ merges the heaviest cluster pair first.  Two [Int64.max_int]
   calls a -> b and one b -> a saturate the pair's weight at [max_int]
   (a plain sum wraps it to -2, and the pair merged last, after a -> c
   of count 1), and the merged cluster's sample weight saturates too
   (a plain sum wraps it negative, so b would lead the merge).  Each
   function is 3,000 bytes, so C3 merges nothing first. *)
let test_hfsort_plus_saturates () =
  let call from_ to_ count =
    { F.br_from_func = from_; br_from_off = 0; br_to_func = to_; br_to_off = 0;
      br_count = count; br_mispreds = 0L }
  in
  let max = Int64.max_int in
  let prof =
    { F.empty with
      F.lbr = true;
      branches = [ call "a" "b" max; call "a" "b" max; call "b" "a" max; call "a" "c" 1L ];
      samples = [ { F.sm_func = "c"; sm_off = 0; sm_count = 10L } ] }
  in
  let funcs = [ ("a", 3000); ("b", 3000); ("c", 3000) ] in
  let original = List.map fst funcs in
  let order = O.order O.Hfsort_plus (CG.of_profile ~funcs prof) ~original in
  Alcotest.(check (list string)) "a and b merge first" [ "a"; "b"; "c" ] order;
  Alcotest.(check (list string)) "oracle agrees" order
    (Oracle.Order.order O.Hfsort_plus (Oracle.Callgraph.of_profile ~funcs prof) ~original)

(* Everything attach and finalize leave on the functions: entry counts,
   each block's out-edges in their order, block counts, profile
   accuracy; then the diagnostics in order. *)
let cfg_state ctx =
  ( List.map
      (fun (fb : Bfunc.t) ->
        ( fb.fb_name,
          fb.exec_count,
          fb.profile_acc,
          Array.map
            (fun (b : Bfunc.bb) ->
              ( b.bl,
                b.ecount,
                List.map (fun (e : Bfunc.edge) -> (e.dst, e.count, e.mispreds)) b.out ))
            fb.blocks ))
      (Ctx.all_funcs ctx),
    Bolt_core.Diag.records ctx.Ctx.diag,
    Bolt_core.Diag.total ctx.Ctx.diag )

(* A call graph's nodes (name, size, samples) and edges ((caller,
   callee), weight), each sorted; the name-keyed oracle's alike. *)
let graph_state (g : CG.t) =
  let module Cfg = Bolt_layout.Cfg in
  ( List.sort compare
      (List.init (Cfg.node_count g) (fun i -> (Cfg.label g i, Cfg.size g i, Cfg.count g i))),
    List.sort compare
      (List.init (Cfg.edge_count g) (fun e ->
           ((Cfg.label g g.Cfg.src.(e), Cfg.label g g.Cfg.dst.(e)), g.Cfg.count.(e)))) )

let oracle_graph_state (g : Oracle.Callgraph.t) =
  ( List.sort compare
      (Hashtbl.fold
         (fun k n acc -> (k, n.Oracle.Callgraph.n_size, n.Oracle.Callgraph.n_samples) :: acc)
         g.Oracle.Callgraph.nodes []),
    List.sort compare (Hashtbl.fold (fun k w acc -> (k, !w) :: acc) g.Oracle.Callgraph.edges []) )

let prop_profile_view =
  let gen =
    QCheck.Gen.(
      let* fns = list_size (int_range 1 5) gen_fn in
      let+ prof = gen_profile (List.length fns) and+ trust = bool in
      (fns, prof, trust))
  in
  let print (fns, prof, trust) =
    Fmt.str "trust_fallthrough %b@.%a@.%s" trust
      Fmt.(list ~sep:cut (fun ppf (i, f) ->
               pf ppf "f%d: simple %b folded %b size %d blocks at %d, sizes %a" i f.fs_simple
                 f.fs_folded (fn_size f) f.fs_first (list ~sep:sp int) (List.map fst f.fs_blocks)))
      (List.mapi (fun i f -> (i, f)) fns)
      (Fdata.to_string prof)
  in
  QCheck.Test.make ~name:"profile view == name-keyed readers (random CFGs, profiles)"
    ~count:1000 (QCheck.make ~print gen)
    (fun (fns, prof, trust_fallthrough) ->
      let a = context_of fns and b = context_of fns in
      let sa = Oracle.Match_profile.attach a prof in
      let sb = Bolt_core.Match_profile.attach b prof in
      let attached = cfg_state a = cfg_state b in
      (* finalize must end alike on both, raising or not; its non-LBR
         split saturates, so counts near [max_int] cannot make it divide
         by zero *)
      let finalize ctx =
        match Bolt_core.Match_profile.finalize ctx ~lbr:prof.Fdata.lbr ~trust_fallthrough with
        | () -> None
        | exception e -> Some (Printexc.to_string e)
      in
      let finalized = finalize a = finalize b && cfg_state a = cfg_state b in
      (* ICP's per-site target lists, read for every simple function *)
      let oracle_sites = Oracle.Icp.build_site_profile a prof in
      let sites_ok =
        List.for_all
          (fun (fb : Bfunc.t) ->
            (not fb.simple)
            || List.sort compare
                 (Hashtbl.fold
                    (fun (n, off) l acc -> if n = fb.fb_name then (off, l) :: acc else acc)
                    oracle_sites [])
               = List.sort compare
                   (Hashtbl.fold (fun off l acc -> (off, l) :: acc) (Bolt_core.Icp.sites b fb) []))
          (Ctx.all_funcs b)
      in
      (* the call graph reorder-functions builds, after ICF folded some *)
      List.iter
        (fun ctx ->
          List.iter2
            (fun f (fb : Bfunc.t) -> if f.fs_folded then fb.folded_into <- Some "f0")
            fns (Ctx.all_funcs ctx))
        [ a; b ];
      let live = List.filter (fun (fb : Bfunc.t) -> fb.folded_into = None) (Ctx.all_funcs b) in
      let funcs = List.map (fun (fb : Bfunc.t) -> (fb.fb_name, max 1 fb.fb_size)) live in
      let oracle_graph = oracle_graph_state (Oracle.Callgraph.of_profile ~funcs prof) in
      sa = sb && attached && finalized && sites_ok
      && graph_state (Bolt_core.Reorder_funcs.lbr_callgraph b ~funcs:live) = oracle_graph
      && graph_state (CG.of_profile ~funcs prof) = oracle_graph)

let suite =
  [
    Alcotest.test_case "fdata-roundtrip" `Quick test_fdata_roundtrip;
    Alcotest.test_case "func-events" `Quick test_func_events;
    Alcotest.test_case "perf2bolt-resolution" `Quick test_perf2bolt_resolution;
    Alcotest.test_case "c3-hot-pair" `Quick test_c3_clusters_hot_pair;
    Alcotest.test_case "c3-page-budget" `Quick test_c3_page_budget;
    Alcotest.test_case "orders-complete" `Quick test_orders_complete;
    Alcotest.test_case "callgraph-lbr" `Quick test_callgraph_from_profile;
    Alcotest.test_case "callgraph-non-lbr" `Quick test_non_lbr_callgraph;
    Alcotest.test_case "call weights saturate" `Quick test_call_weights_saturate;
    Alcotest.test_case "sample split saturates" `Quick test_sample_split_saturates;
    Alcotest.test_case "attach sums saturate" `Quick test_attach_sums_saturate;
    Alcotest.test_case "hfsort+ sums saturate" `Quick test_hfsort_plus_saturates;
    QCheck_alcotest.to_alcotest order_is_permutation;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 2019 |]) prop_profile_view;
  ]
