(* Pass 9: reorder basic blocks and split hot/cold code.

   The chain building, merging and scoring all live in lib/layout
   (bolt_layout) now; this pass is an adapter that projects a Bfunc
   onto Bolt_layout.Cfg, runs the requested algorithm, and writes the
   resulting order back.  Three algorithms, matching BOLT's
   -reorder-blocks:

   - "cache": bottom-up Pettis-Hansen chaining on edge weights;
   - "cache+": the historical seam-scored variant (kept for A/B runs);
   - "ext-tsp" (default): greedy chain merging with splitting under the
     real ExtTSP objective, guarded never to score below cache+ or the
     original layout.

   Splitting moves never-executed blocks to the function's cold fragment
   (paper options -split-functions / -split-all-cold / -split-eh). *)

open Bfunc
module Cfg = Bolt_layout.Cfg
module Engine = Bolt_layout.Engine
module Evaluator = Bolt_layout.Evaluator

(* Position of each label of [labels] (-1 for none). *)
let indexer (labels : string array) =
  let idx = Context.Names.create (2 * Array.length labels) in
  Array.iteri (fun i l -> Context.Names.replace idx l i) labels;
  fun l -> match Context.Names.find idx l with i -> i | exception Not_found -> -1

(* Project a function's CFG in its current layout order.  The identity
   permutation of the result scores the layout as it stands.  [cold]
   marks blocks whose edges should be dropped from the projection (see
   [sunk_blocks]); their nodes stay, as weight-0 singletons.  The label ->
   index map is the only table built. *)
let cfg_of_fn ?(cold = fun _ -> false) (fb : Bfunc.t) : Cfg.t =
  let labels = Array.of_list fb.layout in
  let index = indexer labels in
  let blocks = Array.map (block fb) labels in
  let nodes =
    Array.map
      (fun b -> { Cfg.n_label = b.bl; n_size = block_size fb b; n_count = b.ecount })
      blocks
  in
  let sunk = Array.map cold blocks in
  let edges =
    Hashtbl.fold
      (fun (s, d) (c, _) acc ->
        let si = index s and di = index d in
        if si >= 0 && di >= 0 && (not sunk.(si)) && not sunk.(di) then
          (si, di, !c) :: acc
        else acc)
      fb.edge_counts []
  in
  Cfg.make ~nodes ~entry:(index fb.entry) edges

(* The split rule: [None] when [fb] is not split at all, else the
   predicate naming the blocks split-functions sinks to the cold
   fragment.  reorder-bbs asks the same question first: such blocks
   make worthless fall-through partners, since any adjacency the engine
   buys against one (a stale profile can carry a hot edge into a block
   that never executed) is destroyed right after.  So it projects the
   CFG with their edges dropped, and every algorithm competes only on
   adjacencies that survive.  [sunk_blocks] asks it of a block. *)
let sunk_blocks opts (fb : Bfunc.t) =
  let size_ok =
    match opts.Opts.split_functions with
    | Opts.Split_none -> false
    | Opts.Split_all -> true
    | Opts.Split_large -> fb.fb_size > 256
  in
  if size_ok && has_profile fb && fb.exec_count > 0 then
    Some
      (fun b ->
        b.ecount = 0 && b.bl <> fb.entry && (opts.Opts.split_eh || not b.is_lp))
  else None

let sunk_cold opts fb =
  Option.map (fun sunk l -> sunk (block fb l)) (sunk_blocks opts fb)

let algo_name = function
  | Opts.Rb_none -> "none"
  | Opts.Rb_cache -> "cache"
  | Opts.Rb_cache_plus -> "cache+"
  | Opts.Rb_ext_tsp -> "ext-tsp"

let engine_algo = function
  | Opts.Rb_cache -> Engine.Cache
  | Opts.Rb_cache_plus -> Engine.Cache_plus
  | Opts.Rb_none | Opts.Rb_ext_tsp -> Engine.Ext_tsp

(* The reorder-bbs pass's visitor: reorder one function's layout.
   No-op under Rb_none (the registry also disables the pass then). *)
let reorder_fn ctx sh (fb : Bfunc.t) =
  let algo = ctx.Context.opts.Opts.reorder_blocks in
  if
    algo <> Opts.Rb_none
    && has_profile fb
    && Hashtbl.length fb.Bfunc.blocks > 1
  then begin
    let cfg = cfg_of_fn ?cold:(sunk_blocks ctx.Context.opts fb) fb in
    let order = Engine.order (engine_algo algo) cfg in
    fb.layout <- Array.to_list (Array.map (Cfg.label cfg) order);
    Context.sh_incr sh "pass.reorder-bbs.reordered";
    Context.sh_touch sh fb
  end

(* ---- offline evaluation ---- *)

(* Per-function layout snapshot over the whole context, hottest first:
   each simple profiled function's ExtTSP objective plus its estimated
   hot i-cache-line / i-TLB-page working set.  It feeds the report's
   layout section, dyno-stats' layout rows and `bdump --layout-score`. *)
let snapshot ctx : (string * int * Evaluator.result) list =
  Context.simple_funcs ctx
  |> List.filter_map (fun fb ->
         if has_profile fb && Hashtbl.length fb.Bfunc.blocks > 0 then begin
           let cfg = cfg_of_fn fb in
           Some (fb.fb_name, fb.exec_count, Evaluator.evaluate cfg (Cfg.identity cfg))
         end
         else None)
  |> List.sort (fun (n1, e1, _) (n2, e2, _) ->
         if e1 <> e2 then compare e2 e1 else compare n1 n2)

let snapshot_totals rows =
  List.fold_left (fun acc (_, _, r) -> Evaluator.add acc r) Evaluator.zero rows

(* Hot/cold splitting: cold blocks go to the function's cold fragment,
   which the rewriter emits in the cold code area. *)
let split_fn ctx sh (fb : Bfunc.t) =
  match sunk_cold ctx.Context.opts fb with
  | None -> ()
  | Some cold ->
      List.iter
        (fun l ->
          if cold l then begin
            Hashtbl.replace fb.cold_set l ();
            Context.sh_incr sh "pass.split-functions.blocks_split";
            Context.sh_touch sh fb
          end)
        fb.layout;
      (* a cold block that can fall into a hot one needs a jump; the
         emitter handles that, but keep cold blocks grouped at the end
         of the layout for deterministic output *)
      fb.layout <- hot_layout fb @ cold_layout fb
