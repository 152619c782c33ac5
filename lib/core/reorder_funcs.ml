(* Pass 13: reorder functions with HFSort (§5.3, [25]).

   The weighted call graph comes from the LBR profile when available;
   otherwise from the binary's direct calls weighted by IP samples near
   each call site — which is §5.3's degraded-but-workable fallback that
   cannot see indirect calls.

   The result is a function order (hot first); with split-all-cold,
   never-sampled functions are pushed to the cold area.  Non-simple
   functions participate in the ordering (they can be moved as units in
   relocations mode) but are never split. *)

let direct_calls ctx =
  let calls = ref [] in
  Context.iter_funcs ctx (fun fb ->
      let record off callee = calls := (fb.Bfunc.fb_name, off, callee) :: !calls in
      if fb.Bfunc.simple then
        Bfunc.iter_layout fb (fun _ b ->
            List.iter
              (fun (i : Bfunc.minsn) ->
                match i.Bfunc.op with
                | Bolt_isa.Insn.Call (Bolt_isa.Insn.Sym (s, 0)) when i.Bfunc.m_off >= 0 ->
                    record i.Bfunc.m_off
                      (Option.value ~default:s (Context.plt_target ctx s))
                | _ -> ())
              b.Bfunc.insns)
      else
        List.iter
          (fun (i : Bfunc.minsn) ->
            match i.Bfunc.op with
            | Bolt_isa.Insn.Call (Bolt_isa.Insn.Sym (s, 0)) ->
                record i.Bfunc.m_off
                  (Option.value ~default:s (Context.plt_target ctx s))
            | _ -> ())
          fb.Bfunc.raw_insns);
  !calls

(* The LBR call graph of the live functions [funcs] (in address order):
   each node holds its function's event total and each edge a call
   weight, both read from the profile view by function id.  Without a
   view (match-profile never ran) every node reads 0 samples and there
   are no edges. *)
let lbr_callgraph ctx ~(funcs : Bfunc.t list) =
  let nodes = Bolt_hfsort.Callgraph.by_name (fun (f : Bfunc.t) -> f.fb_name) funcs in
  let funcs = Array.map (fun (f : Bfunc.t) -> (f.fb_name, max 1 f.fb_size)) nodes in
  match ctx.Context.profile with
  | None ->
      Bolt_hfsort.Callgraph.make ~funcs
        ~samples:(Array.make (Array.length funcs) 0) []
  | Some v ->
      (* function id -> node id *)
      let node = Array.make (Array.length v.Profile_view.totals) (-1) in
      Array.iteri (fun k (f : Bfunc.t) -> node.(f.fb_id) <- k) nodes;
      Bolt_hfsort.Callgraph.make ~funcs
        ~samples:(Array.map (fun (f : Bfunc.t) -> v.Profile_view.totals.(f.fb_id)) nodes)
        (List.filter_map
           (fun (caller, callee, w) ->
             if node.(caller) >= 0 && node.(callee) >= 0 then
               Some (node.(caller), node.(callee), w)
             else None)
           (Profile_view.calls v))

(* Returns (hot order, cold order), as function ids. *)
let run ctx (prof : Bolt_profile.Fdata.t) : int list * int list =
  let opts = ctx.Context.opts in
  let live =
    List.filter (fun (f : Bfunc.t) -> f.folded_into = None) (Context.all_funcs ctx)
  in
  let algo =
    match opts.Opts.reorder_functions with
    | Opts.Rf_none -> None
    | Opts.Rf_hfsort -> Some Bolt_hfsort.Order.C3
    | Opts.Rf_hfsort_plus -> Some Bolt_hfsort.Order.Hfsort_plus
    | Opts.Rf_pettis_hansen -> Some Bolt_hfsort.Order.Pettis_hansen
  in
  match algo with
  | None -> (List.map (fun (f : Bfunc.t) -> f.fb_id) live, [])
  | Some algo ->
      let g =
        if prof.lbr then lbr_callgraph ctx ~funcs:live
        else
          Bolt_hfsort.Callgraph.of_samples_and_calls
            ~funcs:(List.map (fun (f : Bfunc.t) -> (f.fb_name, max 1 f.fb_size)) live)
            ~direct_calls:(direct_calls ctx) prof
      in
      let order =
        Bolt_hfsort.Order.order algo g
          ~original:(List.map (fun (f : Bfunc.t) -> f.fb_name) live)
        |> List.map (fun n -> ctx.Context.funcs.(Context.id ctx n))
      in
      (* every live function has a node, holding its profile events
         clamped to an int: positive exactly when the events are *)
      let hot, cold =
        if opts.Opts.split_all_cold then
          List.partition
            (fun (f : Bfunc.t) ->
              Bolt_hfsort.Callgraph.samples g f.fb_name > 0 || f.exec_count > 0)
            order
        else (order, [])
      in
      Context.logf ctx "reorder-functions: %d hot, %d cold" (List.length hot)
        (List.length cold);
      let ids = List.map (fun (f : Bfunc.t) -> f.fb_id) in
      (ids hot, ids cold)
