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

(* Project a function's CFG in its current layout order: node [i] is
   the block at layout position [i], so the identity permutation of the
   result scores the layout as it stands.  [cold] marks blocks (by id)
   whose edges should be dropped from the projection (see
   [sunk_blocks]); their nodes stay, as weight-0 singletons.  Edges
   touching a block the layout does not hold are dropped too. *)
let cfg_of_fn ?(cold = fun _ -> false) (fb : Bfunc.t) : Cfg.t =
  let pos = positions fb in
  let nodes =
    Array.map
      (fun l ->
        let b = fb.blocks.(l) in
        { Cfg.n_label = b.bl; n_size = block_size b; n_count = b.ecount })
      fb.layout
  in
  let keep l = pos.(l) >= 0 && not (cold l) in
  let edges =
    Array.fold_left
      (fun acc l ->
        if keep l then
          List.fold_left
            (fun acc e -> if keep e.dst then (pos.(l), pos.(e.dst), e.count) :: acc else acc)
            acc fb.blocks.(l).out
        else acc)
      [] fb.layout
  in
  Cfg.make ~nodes ~entry:(if Array.length fb.layout > 0 then pos.(0) else -1) edges

(* The split rule: [None] when [fb] is not split at all, else the
   predicate naming the blocks (by id) split-functions sinks to the cold
   fragment.  reorder-bbs asks the same question first: such blocks
   make worthless fall-through partners, since any adjacency the engine
   buys against one (a stale profile can carry a hot edge into a block
   that never executed) is destroyed right after.  So it projects the
   CFG with their edges dropped, and every algorithm competes only on
   adjacencies that survive. *)
let sunk_blocks opts (fb : Bfunc.t) =
  let size_ok =
    match opts.Opts.split_functions with
    | Opts.Split_none -> false
    | Opts.Split_all -> true
    | Opts.Split_large -> fb.fb_size > 256
  in
  if size_ok && has_profile fb && fb.exec_count > 0 then
    Some
      (fun l ->
        let b = fb.blocks.(l) in
        b.ecount = 0 && l <> 0 && (opts.Opts.split_eh || not b.is_lp))
  else None

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
  if algo <> Opts.Rb_none && has_profile fb && Array.length fb.layout > 1 then begin
    let cfg = cfg_of_fn ?cold:(sunk_blocks ctx.Context.opts fb) fb in
    let order = Engine.order (engine_algo algo) cfg in
    fb.layout <- Array.map (fun i -> fb.layout.(i)) order;
    Context.sh_incr sh "pass.reorder-bbs.reordered";
    fb.touched <- true
  end

(* ---- offline evaluation ---- *)

(* Per-function layout snapshot over the whole context, hottest first:
   each simple profiled function's ExtTSP objective plus its estimated
   hot i-cache-line / i-TLB-page working set.  It feeds the report's
   layout section, dyno-stats' layout rows and `bdump --layout-score`. *)
let snapshot ctx : (string * int * Evaluator.result) list =
  Context.simple_funcs ctx
  |> List.filter_map (fun fb ->
         if has_profile fb && Array.length fb.layout > 0 then begin
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
  match sunk_blocks ctx.Context.opts fb with
  | None -> ()
  | Some cold ->
      iter_layout fb (fun l b ->
          if cold l then begin
            b.cold <- true;
            Context.sh_incr sh "pass.split-functions.blocks_split";
            fb.touched <- true
          end);
      (* a cold block that can fall into a hot one needs a jump; the
         emitter handles that, but keep cold blocks grouped at the end
         of the layout for deterministic output *)
      fb.layout <- Array.of_list (hot_layout fb @ cold_layout fb)
