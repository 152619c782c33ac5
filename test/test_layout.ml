(* The shared layout engine (lib/layout): ExtTSP objective, chain pool,
   the three algorithms, the offline evaluator, and the end-to-end
   properties the PR promises — ext-tsp never scores below cache+ or
   the original layout on any profiled function, chains never lose
   blocks, the entry block stays first, and both obolt and minicc stay
   deterministic. *)

module L = Bolt_layout
module Cfg = Bolt_layout.Cfg
module Chain = Bolt_layout.Chain
module Engine = Bolt_layout.Engine
module P = Bolt_pipeline.Pipeline
module Context = Bolt_core.Context
module Opts = Bolt_core.Opts
module Passman = Bolt_core.Passman
module Layout_bbs = Bolt_core.Layout_bbs

let mk ?entry nodes edges =
  Cfg.make
    ~nodes:
      (Array.of_list
         (List.map
            (fun (label, size, count) ->
              { Cfg.n_label = label; n_size = size; n_count = count })
            nodes))
    ?entry edges

let order_labels cfg order =
  Array.to_list (Array.map (Cfg.label cfg) order)

let pos order label =
  let rec go i = function
    | [] -> Alcotest.failf "label %s not placed" label
    | l :: _ when l = label -> i
    | _ :: tl -> go (i + 1) tl
  in
  go 0 order

(* ---- the objective ---- *)

let test_exttsp_weights () =
  (* two hot blocks laid out back to back: pure fall-through weight *)
  let cfg = mk ~entry:0 [ ("a", 16, 10); ("b", 16, 10) ] [ (0, 1, 10) ] in
  Alcotest.(check (float 1e-6)) "fall-through" 10.0 (L.Exttsp.score cfg [| 0; 1 |]);
  (* reversed: b sits before a; the jump goes backward 32 bytes, from
     the end of a (offset 32) to the start of b (offset 0) *)
  let back = L.Exttsp.score cfg [| 1; 0 |] in
  Alcotest.(check (float 1e-6)) "short backward jump"
    (0.1 *. 10.0 *. (1.0 -. (32.0 /. 640.0)))
    back;
  (* a gap block pushes the target to a short forward jump *)
  let cfg3 =
    mk ~entry:0
      [ ("a", 16, 10); ("gap", 100, 0); ("b", 16, 10) ]
      [ (0, 2, 10) ]
  in
  Alcotest.(check (float 1e-6)) "short forward jump"
    (0.1 *. 10.0 *. (1.0 -. (100.0 /. 1024.0)))
    (L.Exttsp.score cfg3 [| 0; 1; 2 |]);
  (* beyond the window the edge is worthless *)
  let far =
    mk ~entry:0 [ ("a", 16, 10); ("gap", 2000, 0); ("b", 16, 10) ] [ (0, 2, 10) ]
  in
  Alcotest.(check (float 1e-6)) "long jump scores zero" 0.0
    (L.Exttsp.score far [| 0; 1; 2 |])

(* ---- golden layouts on the four example CFG shapes ---- *)

(* quickstart-shaped: a diamond with one dominant side *)
let test_golden_diamond () =
  let cfg =
    mk ~entry:0
      [ ("entry", 12, 100); ("hot", 20, 99); ("cold", 20, 1); ("join", 12, 100) ]
      [ (0, 1, 99); (0, 2, 1); (1, 3, 99); (2, 3, 1) ]
  in
  let o = order_labels cfg (Engine.order Engine.Ext_tsp cfg) in
  Alcotest.(check int) "entry first" 0 (pos o "entry");
  Alcotest.(check int) "hot side falls through" 1 (pos o "hot");
  Alcotest.(check int) "join follows the hot side" 2 (pos o "join")

(* datacenter-shaped: a hot loop with a cold exit *)
let test_golden_loop () =
  let cfg =
    mk ~entry:0
      [ ("head", 12, 1000); ("body", 40, 995); ("exit", 12, 5) ]
      [ (0, 1, 995); (1, 0, 990); (0, 2, 5) ]
  in
  let o = order_labels cfg (Engine.order Engine.Ext_tsp cfg) in
  Alcotest.(check int) "loop head first" 0 (pos o "head");
  Alcotest.(check int) "body falls through from head" 1 (pos o "body")

(* compiler-shaped: a switch with one hot case *)
let test_golden_switch () =
  let cfg =
    mk ~entry:0
      [
        ("dispatch", 16, 100);
        ("case_hot", 24, 90);
        ("case_b", 24, 6);
        ("case_c", 24, 4);
        ("join", 12, 100);
      ]
      [ (0, 1, 90); (0, 2, 6); (0, 3, 4); (1, 4, 90); (2, 4, 6); (3, 4, 4) ]
  in
  let o = order_labels cfg (Engine.order Engine.Ext_tsp cfg) in
  Alcotest.(check int) "dispatch first" 0 (pos o "dispatch");
  Alcotest.(check int) "hot case falls through" 1 (pos o "case_hot");
  Alcotest.(check int) "join follows the hot case" 2 (pos o "join")

(* multifeed-shaped: two hot chains given interleaved in the original
   order; the engine must reassemble each chain contiguously *)
let test_golden_two_chains () =
  let cfg =
    mk ~entry:0
      [
        ("e", 8, 100);
        ("a1", 16, 60); ("b1", 16, 40);
        ("a2", 16, 60); ("b2", 16, 40);
        ("a3", 16, 60); ("b3", 16, 40);
      ]
      [
        (0, 1, 60); (0, 2, 40);
        (1, 3, 60); (3, 5, 60);
        (2, 4, 40); (4, 6, 40);
      ]
  in
  let o = order_labels cfg (Engine.order Engine.Ext_tsp cfg) in
  Alcotest.(check int) "entry first" 0 (pos o "e");
  Alcotest.(check int) "a-chain contiguous (a2 after a1)"
    (pos o "a1" + 1) (pos o "a2");
  Alcotest.(check int) "a-chain contiguous (a3 after a2)"
    (pos o "a2" + 1) (pos o "a3");
  Alcotest.(check int) "b-chain contiguous (b2 after b1)"
    (pos o "b1" + 1) (pos o "b2");
  Alcotest.(check int) "b-chain contiguous (b3 after b2)"
    (pos o "b2" + 1) (pos o "b3")

(* A split-merge must beat plain concatenation here: the hot chain X =
   [x1; x2] has a hot edge from x1 into Y and back from Y to x2, so the
   best arrangement is x1·Y·x2 — only reachable by splitting X. *)
let test_split_improves () =
  let cfg =
    mk ~entry:0
      [ ("x1", 16, 100); ("x2", 16, 100); ("y", 16, 100) ]
      [ (0, 1, 1); (0, 2, 100); (2, 1, 100) ]
  in
  let o = order_labels cfg (Engine.order Engine.Ext_tsp cfg) in
  Alcotest.(check (list string)) "split arrangement chosen"
    [ "x1"; "y"; "x2" ] o

(* ---- chain pool invariants ---- *)

let test_chain_pool () =
  let cfg =
    mk [ ("a", 8, 1); ("b", 8, 2); ("c", 8, 3); ("d", 8, 4) ] [ (0, 1, 5) ]
  in
  let pool = Chain.create cfg in
  Alcotest.(check int) "four singleton chains" 4 (List.length (Chain.live_chains pool));
  Chain.append pool ~into:0 1;
  Alcotest.(check int) "merge shrinks the pool" 3 (List.length (Chain.live_chains pool));
  Alcotest.(check int) "O(1) head" 0 (Chain.head pool 0);
  Alcotest.(check int) "O(1) tail" 1 (Chain.tail pool 0);
  Alcotest.(check int) "weights add" 3 (Chain.weight pool 0);
  Alcotest.(check int) "sizes add" 16 (Chain.size pool 0);
  (* split-merge: c between a and b *)
  Chain.replace pool ~keep:0 ~drop:2 [| 0; 2; 1 |];
  Alcotest.(check bool) "dropped chain is dead" false (Chain.alive pool 2);
  Alcotest.(check int) "split keeps every block" 3 (Chain.length pool 0);
  Alcotest.(check int) "membership rerouted" 0 (Chain.chain_of pool 2);
  (* losing a block is rejected *)
  Alcotest.check_raises "lossy arrangement rejected"
    (Invalid_argument "Chain.replace: arrangement loses or duplicates blocks")
    (fun () -> Chain.replace pool ~keep:0 ~drop:3 [| 0; 1 |])

(* Random CFGs: every algorithm returns a permutation with the entry
   block first, and ext-tsp honours its guard contract — score never
   below cache+, fall-through weight (taken branches, sign flipped)
   never below cache+ either, and never below any original layout that
   itself meets the fall-through floor.  Chain splitting included;
   nothing is ever lost. *)
let engine_properties =
  QCheck.Test.make ~name:"engine: permutation, entry-first, ext-tsp dominates"
    ~count:120
    (QCheck.make
       QCheck.Gen.(
         let n = int_range 1 12 in
         pair n (list_size (int_range 0 40) (triple (int_range 0 11) (int_range 0 11) (int_range 0 100))))
    )
    (fun (n, raw_edges) ->
      let nodes =
        List.init n (fun i -> (Printf.sprintf "b%d" i, 8 + (8 * (i mod 4)), (i * 7) mod 50))
      in
      let edges = List.filter (fun (s, d, _) -> s < n && d < n) raw_edges in
      let cfg = mk ~entry:0 nodes edges in
      let ident = List.init n (fun i -> i) in
      let score o = L.Exttsp.score cfg o in
      let results =
        List.map
          (fun a -> Engine.order a cfg)
          [ Engine.Cache; Engine.Cache_plus; Engine.Ext_tsp ]
      in
      let perm_ok =
        List.for_all
          (fun o -> List.sort compare (Array.to_list o) = ident)
          results
      in
      let entry_ok = List.for_all (fun o -> o.(0) = 0) results in
      let ft o = L.Exttsp.fallthroughs cfg o in
      let ext_o = List.nth results 2 and cp_o = List.nth results 1 in
      let ext = score ext_o in
      let floor = ft cp_o in
      let dominates =
        ext +. 1e-6 >= score cp_o
        && ft ext_o >= floor
        && (ft (Cfg.identity cfg) < floor
           || ext +. 1e-6 >= score (Cfg.identity cfg))
      in
      perm_ok && entry_ok && dominates)

(* ---- evaluator ---- *)

let test_evaluator () =
  let cfg =
    mk ~entry:0
      [ ("a", 64, 10); ("b", 64, 10); ("c", 64, 10); ("cold", 4096, 0) ]
      [ (0, 1, 10); (1, 2, 10) ]
  in
  let r = L.Evaluator.evaluate cfg (Cfg.identity cfg) in
  Alcotest.(check int) "three hot cache lines" 3 r.L.Evaluator.ev_icache_lines;
  Alcotest.(check int) "one hot page" 1 r.L.Evaluator.ev_itlb_pages;
  Alcotest.(check int) "cold block excluded" 192 r.L.Evaluator.ev_hot_bytes;
  Alcotest.(check (float 1e-6)) "straight-line score" 20.0 r.L.Evaluator.ev_score;
  (* spreading the same hot blocks across pages costs pages, not score *)
  let spread =
    mk ~entry:0
      [ ("a", 64, 10); ("pad", 8192, 0); ("b", 64, 10); ("c", 64, 10) ]
      [ (0, 2, 10); (2, 3, 10) ]
  in
  let r2 = L.Evaluator.evaluate spread (Cfg.identity spread) in
  Alcotest.(check int) "spread hot pages" 2 r2.L.Evaluator.ev_itlb_pages

(* ---- the int-array layer against the reference implementations ---- *)

(* A random graph: mostly up to 64 nodes, some up to 600 (so chains
   cross [split_threshold] and graphs [split_node_limit]); an entry node
   or none; random, path, self, out-of-range and repeated (parallel)
   edges with zero, negative and mostly equal counts; zero-size and
   zero-count nodes.  [g_perm] is a shuffle of the nodes, [g_keep] picks
   the subset order. *)
type graph_spec = {
  g_nodes : (int * int) array; (* size, count *)
  g_entry : int;
  g_edges : (int * int * int) list;
  g_perm : int list;
  g_keep : bool list;
}

let gen_graph =
  let open QCheck.Gen in
  let* n = frequency [ (1, return 0); (28, int_range 1 64); (2, int_range 65 600) ] in
  let weight =
    frequency
      [ (1, return 0); (1, int_range (-3) (-1)); (6, oneofl [ 1; 2; 5; 10; 100 ]);
        (2, int_range 1 10_000) ]
  in
  let node =
    pair
      (frequency [ (1, return 0); (6, int_range 1 64); (2, int_range 65 700) ])
      (frequency [ (2, return 0); (5, oneofl [ 1; 10; 100 ]); (2, int_range 1 5_000) ])
  in
  let any = if n = 0 then return 0 else int_bound (n - 1) in
  let edge =
    frequency
      [
        (4, triple any any weight);
        (3, map2 (fun i w -> (i, i + 1, w)) any weight);
        (1, map2 (fun i w -> (i, i, w)) any weight);
        (1, triple (oneofl [ -1; 0; n; n + 3 ]) any weight);
        (1, triple any (oneofl [ -1; n; n + 3 ]) weight);
      ]
  in
  let* g_nodes = array_repeat n node in
  let* g_entry = if n = 0 then return (-1) else frequency [ (3, any); (1, return (-1)) ] in
  (* past 64 nodes, a mostly unbroken path i -> i+1 grows chains long
     enough to cross [split_threshold] *)
  let* edges =
    if n <= 64 then list_repeat (3 * n) edge
    else
      let* path =
        list_repeat (n - 1)
          (pair (frequency [ (30, return true); (1, return false) ]) (int_range 1 3))
      in
      let+ extra = list_repeat (n / 3) edge in
      List.concat (List.mapi (fun i (on, w) -> if on then [ (i, i + 1, w) ] else []) path) @ extra
  in
  let* again = if edges = [] then return [] else list_size (int_bound 8) (oneofl edges) in
  let* recount = list_repeat (List.length again) weight in
  let* g_perm = shuffle_l (List.init n Fun.id) in
  let+ g_keep = list_repeat n bool in
  {
    g_nodes; g_entry;
    g_edges = edges @ List.map2 (fun (s, d, _) w -> (s, d, w)) again recount;
    g_perm; g_keep;
  }

let print_graph g =
  Fmt.str "entry %d@.nodes %a@.edges %a" g.g_entry
    Fmt.(array ~sep:sp (pair ~sep:(any ":") int int)) g.g_nodes
    Fmt.(list ~sep:sp (fun ppf (s, d, c) -> pf ppf "%d>%d:%d" s d c)) g.g_edges

let prop_layout_oracle =
  QCheck.Test.make ~name:"layout layer == tuple-keyed oracle (random graphs)" ~count:1000
    (QCheck.make ~print:print_graph gen_graph)
    (fun g ->
      let node (size, count) = { Cfg.n_label = ""; n_size = size; n_count = count } in
      let cfg = Cfg.make ~nodes:(Array.map node g.g_nodes) ~entry:g.g_entry g.g_edges in
      let ocfg =
        Oracle.Cfg.make
          ~nodes:
            (Array.map
               (fun (size, count) -> { Oracle.Cfg.n_label = ""; n_size = size; n_count = count })
               g.g_nodes)
          ~entry:g.g_entry g.g_edges
      in
      let edges_ok =
        Array.to_list ocfg.Oracle.Cfg.edges
        = List.init (Cfg.edge_count cfg) (fun e ->
              (cfg.Cfg.src.(e), cfg.Cfg.dst.(e), cfg.Cfg.count.(e)))
        && Array.for_all Fun.id
             (Array.init (Cfg.node_count cfg) (fun i ->
                  ocfg.Oracle.Cfg.succ.(i)
                  = List.init (cfg.Cfg.out_first.(i + 1) - cfg.Cfg.out_first.(i)) (fun k ->
                        let e = cfg.Cfg.out.(cfg.Cfg.out_first.(i) + k) in
                        (cfg.Cfg.dst.(e), cfg.Cfg.count.(e)))))
        && cfg.Cfg.entry = ocfg.Oracle.Cfg.entry
      in
      let algos = [ Engine.Cache; Engine.Cache_plus; Engine.Ext_tsp ] in
      let orders = List.map (fun a -> Engine.order a cfg) algos in
      let merged = Engine.ext_tsp_merge cfg in
      let orders_ok =
        orders = List.map (fun a -> Oracle.Engine.order a ocfg) algos
        && merged = Oracle.Engine.ext_tsp_merge ocfg
      in
      let perm = Array.of_list g.g_perm in
      let subset =
        List.combine g.g_perm g.g_keep
        |> List.filter_map (fun (b, keep) -> if keep then Some b else None)
        |> Array.of_list
      in
      let bits = Int64.bits_of_float in
      let same_eval ?line ?page o =
        let a = L.Evaluator.evaluate ?line ?page cfg o
        and b = Oracle.Evaluator.evaluate ?line ?page ocfg o in
        bits a.L.Evaluator.ev_score = bits b.L.Evaluator.ev_score
        && { a with ev_score = 0.0 } = { b with ev_score = 0.0 }
      in
      let scores_ok =
        List.for_all
          (fun o ->
            bits (L.Exttsp.score cfg o) = bits (Oracle.Exttsp.score ocfg o)
            && L.Exttsp.fallthroughs cfg o = Oracle.Exttsp.fallthroughs ocfg o
            && same_eval o
            && same_eval ~line:16 ~page:256 o)
          (Cfg.identity cfg :: perm :: subset :: merged :: orders)
      in
      edges_ok && orders_ok && scores_ok)

(* A random call graph: names whose order differs from their position,
   sizes (some over the page budget), many equal and zero sample counts,
   and calls with self, unknown, repeated, zero and near-[max_int]
   weights. *)
let gen_callgraph =
  let open QCheck.Gen in
  let* k = int_range 0 40 in
  let* ids = shuffle_l (List.init k Fun.id) in
  let names = List.map (fun i -> Printf.sprintf "f%d" (i * 7)) ids in
  let* sizes = list_repeat k (frequency [ (1, return 1); (6, int_range 1 900); (1, int_range 1000 5000) ]) in
  let* samples =
    list_repeat k (frequency [ (2, return 0); (4, oneofl [ 1; 5; 50 ]); (2, int_range 1 10_000) ])
  in
  let name = if k = 0 then return "gone" else frequency [ (12, oneofl names); (1, return "gone") ] in
  let weight =
    frequency
      [ (1, return 0); (6, oneofl [ 1; 3; 10 ]); (2, int_range 1 10_000);
        (1, map (fun d -> max_int - d) (int_range 0 2)) ]
  in
  let+ calls = list_size (int_range 0 (3 * k)) (triple name name weight) in
  (List.combine names sizes, List.combine names samples, calls)

let prop_order_oracle =
  QCheck.Test.make ~name:"function orders == string-keyed oracle (random call graphs)"
    ~count:1000
    (QCheck.make gen_callgraph)
    (fun (funcs, samples, calls) ->
      let g = Bolt_hfsort.Callgraph.of_calls ~funcs ~samples:(fun n -> List.assoc n samples) calls in
      let og = Oracle.Callgraph.create () in
      List.iter (fun (name, size) -> Oracle.Callgraph.add_node og ~name ~size) funcs;
      List.iter (fun (name, c) -> Oracle.Callgraph.add_samples og name c) samples;
      List.iter (fun (a, b, w) -> Oracle.Callgraph.add_edge og a b w) calls;
      let original = List.map fst funcs in
      List.for_all
        (fun algo ->
          Bolt_hfsort.Order.order algo g ~original = Oracle.Order.order algo og ~original)
        Bolt_hfsort.Order.[ C3; Hfsort_plus; Pettis_hansen ])

(* ---- end-to-end: score monotonicity on example-shaped workloads ---- *)

let quickstart_source =
  {|
global total = 0;
const table = { 5, 3, 8, 1, 9, 2, 7, 4 };

fn hash(x) { return (x * 2654435761) & 1073741823; }

fn classify(x) {
  switch (x % 8) {
    case 0: { return table[0]; }
    case 1: { return table[1]; }
    case 2: { return table[2]; }
    case 3: { return table[3]; }
    case 4: { return table[4]; }
    default: { return x % 3; }
  }
}

fn process(x) {
  var h = hash(x);
  if (h % 100 < 2) { throw h; }
  return classify(h) + (h % 7);
}

fn main() {
  var i = 0;
  while (i < 20000) {
    try { total = total + process(i); }
    catch (e) { total = total + 1; }
    i = i + 1;
  }
  out total;
  return 0;
}
|}

(* A context with CFGs built and the profile attached, pre-reorder. *)
let mk_ctx build prof =
  let ctx = Context.create ~opts:Opts.default build.P.exe in
  let env = Passman.make_env ctx prof in
  Passman.run env Passman.pre_passes;
  ctx

let check_monotone name ctx =
  let checked = ref 0 in
  List.iter
    (fun fb ->
      if Bolt_core.Bfunc.has_profile fb && Array.length fb.Bolt_core.Bfunc.layout > 1
      then begin
        incr checked;
        let cfg = Layout_bbs.cfg_of_fn fb in
        let score a = L.Exttsp.score cfg (Engine.order a cfg) in
        let ext = score Engine.Ext_tsp in
        let fname = fb.Bolt_core.Bfunc.fb_name in
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s: ext-tsp >= cache+" name fname)
          true
          (ext +. 1e-6 >= score Engine.Cache_plus);
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s: ext-tsp >= cache" name fname)
          true
          (ext +. 1e-6 >= score Engine.Cache);
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s: ext-tsp >= original" name fname)
          true
          (ext +. 1e-6 >= L.Exttsp.score cfg (Cfg.identity cfg))
      end)
    (Context.simple_funcs ctx);
  Alcotest.(check bool) (name ^ ": checked some functions") true (!checked > 0)

let test_monotone_quickstart () =
  let build = P.compile [ ("quickstart", quickstart_source) ] in
  let prof, _ = P.profile build ~input:[||] in
  check_monotone "quickstart" (mk_ctx build prof)

let gen_build params =
  let w = Bolt_workloads.Gen.gen params in
  let cc = Bolt_minic.Driver.default_options in
  let r =
    Bolt_minic.Driver.compile ~options:cc
      ~externals:w.Bolt_workloads.Gen.externals
      ~extra_objs:w.Bolt_workloads.Gen.extra_objs w.Bolt_workloads.Gen.sources
  in
  let build = { P.exe = r.exe; cc } in
  let prof, _ = P.profile build ~input:w.Bolt_workloads.Gen.input in
  (build, prof)

let test_monotone_datacenter () =
  let build, prof =
    gen_build
      {
        Bolt_workloads.Workloads.hhvm_like with
        Bolt_workloads.Gen.funcs = 150;
        modules = 3;
        iterations = 1_000;
      }
  in
  check_monotone "datacenter" (mk_ctx build prof)

(* The dyno-stats acceptance bar: with the ext-tsp default, taken
   branches after BOLT stay no worse than what cache+ achieves on the
   datacenter-shaped workload, and the after-layout ExtSTP total is no
   worse either. *)
let test_beats_cache_plus_e2e () =
  let build, prof =
    gen_build
      {
        Bolt_workloads.Workloads.hhvm_like with
        Bolt_workloads.Gen.funcs = 150;
        modules = 3;
        iterations = 1_000;
      }
  in
  let run rb =
    let opts = { Opts.default with reorder_blocks = rb } in
    let _, r = P.bolt ~opts build prof in
    r
  in
  let ext = run Opts.Rb_ext_tsp and cp = run Opts.Rb_cache_plus in
  let taken (r : Bolt_core.Bolt.report) =
    r.Bolt_core.Bolt.r_dyno_after.Bolt_core.Dyno_stats.taken_branches
  in
  let score (r : Bolt_core.Bolt.report) =
    (Layout_bbs.snapshot_totals r.Bolt_core.Bolt.r_layout_after)
      .L.Evaluator.ev_score
  in
  Alcotest.(check bool) "taken branches <= cache+" true (taken ext <= taken cp);
  Alcotest.(check bool) "ExtTSP total >= cache+" true
    (score ext +. 1e-6 >= score cp)

(* ---- determinism ---- *)

(* -j1 vs -j4 byte-identity for the new default pass (the parallel
   suite re-checks this on the bigger workloads). *)
let test_parallel_identity () =
  let build = P.compile [ ("t", quickstart_source) ] in
  let prof, _ = P.profile build ~input:[||] in
  let at jobs =
    let b, _ = P.bolt ~jobs build prof in
    Bolt_obj.Objfile.to_string b.P.exe
  in
  Alcotest.(check bool) "j1 = j4 bytes" true (at 1 = at 4)

(* minicc PGO -O2 layout: two compiles of the same sources with the
   same edge profile must be byte-identical (the old blocklayout sorted
   equal-weight edges in hashtable order and was not). *)
let test_minicc_pgo_deterministic () =
  let sources = [ ("t", quickstart_source) ] in
  let cc = Bolt_minic.Driver.default_options in
  let edge_prof = P.pgo_profile ~cc sources ~input:[||] in
  let compile () =
    (Bolt_minic.Driver.compile
       ~options:{ cc with Bolt_minic.Driver.pgo = Bolt_minic.Driver.Apply edge_prof }
       sources)
      .Bolt_minic.Driver.exe |> Bolt_obj.Objfile.to_string
  in
  Alcotest.(check bool) "PGO recompile is byte-identical" true
    (compile () = compile ())

let suite =
  [
    Alcotest.test_case "exttsp-weights" `Quick test_exttsp_weights;
    Alcotest.test_case "golden-diamond" `Quick test_golden_diamond;
    Alcotest.test_case "golden-loop" `Quick test_golden_loop;
    Alcotest.test_case "golden-switch" `Quick test_golden_switch;
    Alcotest.test_case "golden-two-chains" `Quick test_golden_two_chains;
    Alcotest.test_case "split-improves" `Quick test_split_improves;
    Alcotest.test_case "chain-pool" `Quick test_chain_pool;
    QCheck_alcotest.to_alcotest engine_properties;
    Alcotest.test_case "evaluator" `Quick test_evaluator;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 1809 |]) prop_layout_oracle;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 2017 |]) prop_order_oracle;
    Alcotest.test_case "monotone-quickstart" `Quick test_monotone_quickstart;
    Alcotest.test_case "monotone-datacenter" `Slow test_monotone_datacenter;
    Alcotest.test_case "beats-cache-plus-e2e" `Slow test_beats_cache_plus_e2e;
    Alcotest.test_case "parallel-identity" `Quick test_parallel_identity;
    Alcotest.test_case "minicc-pgo-deterministic" `Quick
      test_minicc_pgo_deterministic;
  ]
