(* The layout engine: three algorithms over the shared chain pool.

   - Cache: bottom-up Pettis-Hansen chaining — hottest edge first, merge
     only when the edge runs tail-to-head, so the hottest successor
     becomes the fall-through.
   - Cache_plus: the historical "ext-TSP-flavoured" variant — scores
     both concatenation orders of the two chains by the fall-through
     weight across the seam.
   - Ext_tsp: greedy chain merging under the real ExtTSP objective.
     Every round picks the pair of connected chains whose best
     arrangement — X·Y, Y·X, or a bounded split X1·Y·X2 / Y1·X·Y2 —
     gains the most score, until no merge gains anything.  The result is
     guarded: the engine returns whichever of {ext-tsp, cache+,
     original} scores highest among those keeping at least cache+'s
     fall-through weight, so Ext_tsp never regresses the objective below
     cache+ and never produces more taken branches than cache+ either.

   All loops iterate edges and chains in total deterministic orders
   (count desc then (src, dst) asc; chain ids ascend), so layouts are
   reproducible across runs and domain counts. *)

type algo = Cache | Cache_plus | Ext_tsp

(* Entry chain first, then weight desc, chain id asc — and any node the
   merge loops never reached (there are none today, but keep the
   contract total) would simply still be its own chain. *)
let final_order (cfg : Cfg.t) pool =
  let chains = Chain.live_chains pool in
  let entry_c, rest =
    if cfg.Cfg.entry >= 0 then
      List.partition (fun c -> c = Chain.chain_of pool cfg.Cfg.entry) chains
    else ([], chains)
  in
  let rest =
    List.sort
      (fun a b ->
        let wa = Chain.weight pool a and wb = Chain.weight pool b in
        if wa <> wb then compare wb wa else compare a b)
      rest
  in
  Chain.emit pool (entry_c @ rest)

let cache (cfg : Cfg.t) =
  let pool = Chain.create cfg in
  Array.iter
    (fun (s, d, _) ->
      let ca = Chain.chain_of pool s and cb = Chain.chain_of pool d in
      if ca <> cb && Chain.tail pool ca = s && Chain.head pool cb = d
         && d <> cfg.Cfg.entry
      then Chain.append pool ~into:ca cb)
    cfg.Cfg.edges;
  final_order cfg pool

let cache_plus (cfg : Cfg.t) =
  let pool = Chain.create cfg in
  let w = Hashtbl.create 64 in
  Array.iter (fun (s, d, c) -> Hashtbl.replace w (s, d) c) cfg.Cfg.edges;
  let seam a b = Option.value ~default:0 (Hashtbl.find_opt w (a, b)) in
  Array.iter
    (fun (s, d, _) ->
      let ca = Chain.chain_of pool s and cb = Chain.chain_of pool d in
      if ca <> cb then begin
        let seam_ab = seam (Chain.tail pool ca) (Chain.head pool cb) in
        let seam_ba = seam (Chain.tail pool cb) (Chain.head pool ca) in
        if seam_ab >= seam_ba && Chain.head pool cb <> cfg.Cfg.entry
           && seam_ab > 0
        then Chain.append pool ~into:ca cb
        else if seam_ba > 0 && Chain.head pool ca <> cfg.Cfg.entry then
          Chain.append pool ~into:cb ca
      end)
    cfg.Cfg.edges;
  final_order cfg pool

(* ---- ext-tsp ---- *)

(* Split bounds: arrangements with a split point are tried only for
   chains of at most [split_threshold] blocks, and only while the whole
   function stays under [split_node_limit] blocks — past that the
   quadratic split enumeration stops paying for itself. *)
let split_threshold = 128
let split_node_limit = 512
let epsilon = 1e-9

let ext_tsp_merge (cfg : Cfg.t) =
  let n = Cfg.node_count cfg in
  let pool = Chain.create cfg in
  (* arrangement scoring with stamped addresses: only edges with both
     ends inside the arrangement count, which is exactly the chain-local
     score the merge loop maximises *)
  let addr = Array.make n 0 in
  let stamp = Array.make n 0 in
  let clock = ref 0 in
  let score_arr arr =
    incr clock;
    let a = ref 0 in
    Array.iter
      (fun b ->
        stamp.(b) <- !clock;
        addr.(b) <- !a;
        a := !a + Cfg.size cfg b)
      arr;
    let t = ref 0.0 in
    Array.iter
      (fun b ->
        let src_end = addr.(b) + Cfg.size cfg b in
        List.iter
          (fun (d, c) ->
            if stamp.(d) = !clock then
              t := !t +. Exttsp.score_edge ~src_end ~dst:addr.(d) c)
          cfg.Cfg.succ.(b))
      arr;
    !t
  in
  (* self-edges are dropped at Cfg.make, so singletons score 0 *)
  let chain_score = Array.make n 0.0 in
  let entry = cfg.Cfg.entry in
  (* best arrangement of two live chains; returns (gain, score, arr) *)
  let best_merge a b =
    let xa = Chain.blocks pool a and xb = Chain.blocks pool b in
    let la = Array.length xa and lb = Array.length xb in
    let base = chain_score.(a) +. chain_score.(b) in
    let has_entry =
      entry >= 0 && (Chain.chain_of pool entry = a || Chain.chain_of pool entry = b)
    in
    let best = ref None in
    let consider arr =
      if (not has_entry) || arr.(0) = entry then begin
        let s = score_arr arr in
        let g = s -. base in
        match !best with
        | Some (bg, _, _) when g <= bg +. epsilon -> ()
        | _ -> best := Some (g, s, arr)
      end
    in
    consider (Array.append xa xb);
    consider (Array.append xb xa);
    if n <= split_node_limit then begin
      if la >= 2 && la <= split_threshold then
        for i = 1 to la - 1 do
          consider
            (Array.concat [ Array.sub xa 0 i; xb; Array.sub xa i (la - i) ])
        done;
      if lb >= 2 && lb <= split_threshold then
        for i = 1 to lb - 1 do
          consider
            (Array.concat [ Array.sub xb 0 i; xa; Array.sub xb i (lb - i) ])
        done
    end;
    !best
  in
  (* candidate pairs: chains connected by at least one edge *)
  let norm a b = if a < b then (a, b) else (b, a) in
  let pairs : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (s, d, _) ->
      let ca = Chain.chain_of pool s and cb = Chain.chain_of pool d in
      if ca <> cb then Hashtbl.replace pairs (norm ca cb) ())
    cfg.Cfg.edges;
  let gains : (int * int, (float * float * int array) option) Hashtbl.t =
    Hashtbl.create 64
  in
  let continue_ = ref true in
  while !continue_ && Hashtbl.length pairs > 0 do
    let keys =
      Hashtbl.fold (fun k () acc -> k :: acc) pairs [] |> List.sort compare
    in
    let best = ref None in
    List.iter
      (fun (a, b) ->
        let g =
          match Hashtbl.find_opt gains (a, b) with
          | Some g -> g
          | None ->
              let g = best_merge a b in
              Hashtbl.replace gains (a, b) g;
              g
        in
        match g with
        | Some (gain, score, arr) -> (
            match !best with
            | Some (bg, _, _, _, _) when gain <= bg +. epsilon -> ()
            | _ -> best := Some (gain, score, arr, a, b))
        | None -> ())
      keys;
    match !best with
    | Some (gain, score, arr, a, b) when gain > epsilon ->
        Chain.replace pool ~keep:a ~drop:b arr;
        chain_score.(a) <- score;
        (* rekey b's pairs onto a, and drop stale gains touching a or b *)
        let touched (x, y) = x = a || y = a || x = b || y = b in
        let old = Hashtbl.fold (fun k () acc -> k :: acc) pairs [] in
        List.iter
          (fun ((x, y) as k) ->
            if touched k then begin
              Hashtbl.remove pairs k;
              let partner = if x = a || x = b then y else x in
              if partner <> a && partner <> b then
                Hashtbl.replace pairs (norm a partner) ()
            end)
          old;
        Hashtbl.iter
          (fun k _ -> if touched k then Hashtbl.remove gains k)
          (Hashtbl.copy gains)
    | _ -> continue_ := false
  done;
  final_order cfg pool

let order algo (cfg : Cfg.t) =
  if Cfg.node_count cfg <= 1 then Cfg.identity cfg
  else
    match algo with
    | Cache -> cache cfg
    | Cache_plus -> cache_plus cfg
    | Ext_tsp ->
        (* Never-regress guard, two keys.  Among {ext-tsp, cache+,
           original}, keep the best under the objective (ties prefer
           ext-tsp) — but only candidates that keep at least cache+'s
           fall-through weight are eligible.  The objective's proximity
           terms can trade a fall-through for short-jump credit, which
           raises the score while raising taken branches too; pinning
           fall-through weight at the cache+ floor means switching the
           default to ext-tsp can only remove taken branches, never add
           them, while the score still never drops below cache+ (cache+
           itself always meets its own floor). *)
        let cp = cache_plus cfg in
        let floor = Exttsp.fallthroughs cfg cp in
        let candidates = [ ext_tsp_merge cfg; cp; Cfg.identity cfg ] in
        let scored =
          List.filter_map
            (fun o ->
              if Exttsp.fallthroughs cfg o >= floor then
                Some (Exttsp.score cfg o, o)
              else None)
            candidates
        in
        let best =
          List.fold_left
            (fun (bs, bo) (s, o) ->
              if s > bs +. epsilon then (s, o) else (bs, bo))
            (List.hd scored) (List.tl scored)
        in
        snd best
