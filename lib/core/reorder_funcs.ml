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
                      (match Hashtbl.find_opt ctx.Context.plt_target s with
                      | Some t -> t
                      | None -> s)
                | _ -> ())
              b.Bfunc.insns)
      else
        List.iter
          (fun (i : Bfunc.minsn) ->
            match i.Bfunc.op with
            | Bolt_isa.Insn.Call (Bolt_isa.Insn.Sym (s, 0)) ->
                record i.Bfunc.m_off
                  (match Hashtbl.find_opt ctx.Context.plt_target s with
                  | Some t -> t
                  | None -> s)
            | _ -> ())
          fb.Bfunc.raw_insns);
  !calls

(* The LBR call graph of the live functions [funcs] ((name, size) in
   address order): each node holds its function's event total and each
   edge a call weight, both read from the profile view by function
   index.  Without a view (match-profile never ran) every node reads 0
   samples and there are no edges. *)
let lbr_callgraph ctx ~funcs =
  let funcs = Bolt_hfsort.Callgraph.by_name funcs in
  match ctx.Context.profile with
  | None ->
      Bolt_hfsort.Callgraph.make ~funcs
        ~samples:(Array.make (Array.length funcs) 0) []
  | Some v ->
      (* view index -> node id *)
      let rank = Array.map (fun (n, _) -> Context.order_rank ctx n) funcs in
      let id = Array.make (Array.length v.Profile_view.funcs) (-1) in
      Array.iteri (fun k r -> id.(r) <- k) rank;
      Bolt_hfsort.Callgraph.make ~funcs
        ~samples:(Array.map (fun r -> v.Profile_view.totals.(r)) rank)
        (List.filter_map
           (fun (caller, callee, w) ->
             if id.(caller) >= 0 && id.(callee) >= 0 then
               Some (id.(caller), id.(callee), w)
             else None)
           (Profile_view.calls v))

(* Returns (hot order, cold order). *)
let run ctx (prof : Bolt_profile.Fdata.t) : string list * string list =
  let opts = ctx.Context.opts in
  let live_fns =
    List.filter_map
      (fun n ->
        match Context.func ctx n with
        | Some f when f.Bfunc.folded_into = None -> Some f
        | _ -> None)
      ctx.Context.order
  in
  let live = List.map (fun f -> f.Bfunc.fb_name) live_fns in
  let algo =
    match opts.Opts.reorder_functions with
    | Opts.Rf_none -> None
    | Opts.Rf_hfsort -> Some Bolt_hfsort.Order.C3
    | Opts.Rf_hfsort_plus -> Some Bolt_hfsort.Order.Hfsort_plus
    | Opts.Rf_pettis_hansen -> Some Bolt_hfsort.Order.Pettis_hansen
  in
  match algo with
  | None -> (live, [])
  | Some algo ->
      let funcs =
        List.map (fun f -> (f.Bfunc.fb_name, max 1 f.Bfunc.fb_size)) live_fns
      in
      let g =
        if prof.lbr then lbr_callgraph ctx ~funcs
        else
          Bolt_hfsort.Callgraph.of_samples_and_calls ~funcs
            ~direct_calls:(direct_calls ctx) prof
      in
      let order = Bolt_hfsort.Order.order algo g ~original:live in
      (* every live function has a node, holding its profile events
         clamped to an int: positive exactly when the events are *)
      let is_sampled n = Bolt_hfsort.Callgraph.samples g n > 0 in
      let hot, cold =
        if opts.Opts.split_all_cold then
          List.partition
            (fun n ->
              is_sampled n
              ||
              match Context.func ctx n with
              | Some f -> f.Bfunc.exec_count > 0
              | None -> false)
            order
        else (order, [])
      in
      Context.logf ctx "reorder-functions: %d hot, %d cold" (List.length hot)
        (List.length cold);
      (hot, cold)
