(* -dyno-stats: profile-weighted execution statistics of the current
   layout, the source of the paper's Table 2.

   All numbers are derived from the CFG annotations: a branch "executes"
   its block's count; it is "taken" with the weight of its non-fall-through
   edge; forward/backward is judged against the current block layout.
   Instruction counts weight each block's length by its execution count. *)

open Bfunc

type t = {
  mutable executed_forward_branches : int;
  mutable taken_forward_branches : int;
  mutable executed_backward_branches : int;
  mutable taken_backward_branches : int;
  mutable executed_unconditional : int;
  mutable executed_instructions : int;
  mutable total_branches : int;
  mutable taken_branches : int;
  mutable non_taken_conditional : int;
  mutable taken_conditional : int;
  mutable executed_calls : int;
  (* layout quality (lib/layout's offline evaluator): summed per-function
     ExtTSP objective (x1000, so the before/after delta table stays
     integral) and the estimated hot working set *)
  mutable layout_score_x1000 : int;
  mutable hot_icache_lines : int;
  mutable hot_itlb_pages : int;
}

let zero () =
  {
    executed_forward_branches = 0;
    taken_forward_branches = 0;
    executed_backward_branches = 0;
    taken_backward_branches = 0;
    executed_unconditional = 0;
    executed_instructions = 0;
    total_branches = 0;
    taken_branches = 0;
    non_taken_conditional = 0;
    taken_conditional = 0;
    executed_calls = 0;
    layout_score_x1000 = 0;
    hot_icache_lines = 0;
    hot_itlb_pages = 0;
  }

(* The statistics of the context's current layout.  [layout] is
   [Layout_bbs.snapshot] of the same state: its rows give the layout
   quality totals. *)
let collect ctx (layout : (string * int * Bolt_layout.Evaluator.result) list) : t =
  let st = zero () in
  List.iter
    (fun fb ->
      let pos = positions fb in
      let index l = match pos.(l) with -1 -> max_int | i -> i in
      (* block [b] at layout position [i], followed by block [next] (-1
         at the end) *)
      let visit i b next =
        let n = b.ecount in
        if n <> 0 then begin
          st.executed_instructions <-
            st.executed_instructions + (n * List.length b.insns);
          List.iter
            (fun (ins : minsn) ->
              if Bolt_isa.Insn.is_call ins.op then
                st.executed_calls <- st.executed_calls + n)
            b.insns
        end;
        match b.term with
        | T_cond (_, taken, fall) when taken <> fall ->
            let tk = edge_count b taken in
            let fl = edge_count b fall in
            let executed = max n (tk + fl) in
            (* emission picks the branch polarity from the layout: the
               emitted Jcc is TAKEN with the weight of whichever edge is
               NOT the layout successor *)
            let jcc_target, jcc_taken, jcc_not_taken, extra_jmp =
              if next = fall then (taken, tk, fl, 0)
              else if next = taken then (fall, fl, tk, 0)
              else (taken, tk, fl, fl) (* Jcc taken + trailing jmp fall *)
            in
            let forward = index jcc_target > i in
            st.total_branches <- st.total_branches + executed;
            st.taken_branches <- st.taken_branches + jcc_taken;
            st.taken_conditional <- st.taken_conditional + jcc_taken;
            st.non_taken_conditional <- st.non_taken_conditional + jcc_not_taken;
            if forward then begin
              st.executed_forward_branches <- st.executed_forward_branches + executed;
              st.taken_forward_branches <- st.taken_forward_branches + jcc_taken
            end
            else begin
              st.executed_backward_branches <- st.executed_backward_branches + executed;
              st.taken_backward_branches <- st.taken_backward_branches + jcc_taken
            end;
            if extra_jmp > 0 then begin
              st.executed_unconditional <- st.executed_unconditional + extra_jmp;
              st.taken_branches <- st.taken_branches + extra_jmp;
              st.total_branches <- st.total_branches + extra_jmp;
              st.executed_instructions <- st.executed_instructions + extra_jmp
            end
        | T_jump t ->
            if next <> t then begin
              (* a real jmp instruction will be emitted *)
              st.executed_unconditional <- st.executed_unconditional + n;
              st.total_branches <- st.total_branches + n;
              st.taken_branches <- st.taken_branches + n;
              st.executed_instructions <- st.executed_instructions + n
            end
        | T_condtail (_, _, fall) ->
            let tk = max 0 (n - edge_count b fall) in
            st.total_branches <- st.total_branches + n;
            st.taken_branches <- st.taken_branches + tk;
            st.taken_conditional <- st.taken_conditional + tk;
            st.non_taken_conditional <- st.non_taken_conditional + (n - tk)
        | T_indirect _ ->
            st.total_branches <- st.total_branches + n;
            st.taken_branches <- st.taken_branches + n
        | T_cond _ | T_stop -> ()
      in
      let last = Array.length fb.layout - 1 in
      Array.iteri
        (fun i l -> visit i fb.blocks.(l) (if i < last then fb.layout.(i + 1) else -1))
        fb.layout)
    (Context.simple_funcs ctx);
  List.iter
    (fun (_, _, (r : Bolt_layout.Evaluator.result)) ->
      st.layout_score_x1000 <-
        st.layout_score_x1000
        + int_of_float ((r.ev_score *. 1000.0) +. 0.5);
      st.hot_icache_lines <- st.hot_icache_lines + r.ev_icache_lines;
      st.hot_itlb_pages <- st.hot_itlb_pages + r.ev_itlb_pages)
    layout;
  st

let rows (t : t) =
  [
    ("executed forward branches", t.executed_forward_branches);
    ("taken forward branches", t.taken_forward_branches);
    ("executed backward branches", t.executed_backward_branches);
    ("taken backward branches", t.taken_backward_branches);
    ("executed unconditional branches", t.executed_unconditional);
    ("executed instructions", t.executed_instructions);
    ("total branches", t.total_branches);
    ("taken branches", t.taken_branches);
    ("non-taken conditional branches", t.non_taken_conditional);
    ("taken conditional branches", t.taken_conditional);
    ("executed calls", t.executed_calls);
    ("layout score (ExtTSP x1000)", t.layout_score_x1000);
    ("hot i-cache lines", t.hot_icache_lines);
    ("hot i-TLB pages", t.hot_itlb_pages);
  ]

let pct_delta before after =
  if before = 0 then 0.0 else 100.0 *. float_of_int (after - before) /. float_of_int before

(* BOLT-style before/after delta table (Table 2): one row per statistic,
   before, after and the percentage change side by side. *)
let pp_comparison ppf ~(before : t) ~(after : t) =
  Fmt.pf ppf "  %-34s %12s %12s %9s@." "metric" "before" "after" "delta";
  List.iter2
    (fun (name, b) (_, a) ->
      Fmt.pf ppf "  %-34s %12d %12d %+8.1f%%@." name b a (pct_delta b a))
    (rows before) (rows after)

let to_json (t : t) : Bolt_obs.Json.t =
  Bolt_obs.Json.Obj
    (List.map
       (fun (name, v) ->
         (String.map (fun c -> if c = ' ' then '_' else c) name, Bolt_obs.Json.Int v))
       (rows t))

(* Before/after/delta rows as one JSON object per metric. *)
let comparison_to_json ~(before : t) ~(after : t) : Bolt_obs.Json.t =
  Bolt_obs.Json.List
    (List.map2
       (fun (name, b) (_, a) ->
         Bolt_obs.Json.Obj
           [
             ("metric", Bolt_obs.Json.String name);
             ("before", Bolt_obs.Json.Int b);
             ("after", Bolt_obs.Json.Int a);
             ("delta_pct", Bolt_obs.Json.Float (pct_delta b a));
           ])
       (rows before) (rows after))
