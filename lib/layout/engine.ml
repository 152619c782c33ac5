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
  for e = 0 to Cfg.edge_count cfg - 1 do
    let s = cfg.Cfg.src.(e) and d = cfg.Cfg.dst.(e) in
    let ca = Chain.chain_of pool s and cb = Chain.chain_of pool d in
    if ca <> cb && Chain.tail pool ca = s && Chain.head pool cb = d
       && d <> cfg.Cfg.entry
    then Chain.append pool ~into:ca cb
  done;
  final_order cfg pool

let cache_plus (cfg : Cfg.t) =
  let pool = Chain.create cfg in
  for e = 0 to Cfg.edge_count cfg - 1 do
    let ca = Chain.chain_of pool cfg.Cfg.src.(e)
    and cb = Chain.chain_of pool cfg.Cfg.dst.(e) in
    if ca <> cb then begin
      let seam_ab = Cfg.weight cfg (Chain.tail pool ca) (Chain.head pool cb) in
      let seam_ba = Cfg.weight cfg (Chain.tail pool cb) (Chain.head pool ca) in
      if seam_ab >= seam_ba && Chain.head pool cb <> cfg.Cfg.entry
         && seam_ab > 0
      then Chain.append pool ~into:ca cb
      else if seam_ba > 0 && Chain.head pool ca <> cfg.Cfg.entry then
        Chain.append pool ~into:cb ca
    end
  done;
  final_order cfg pool

(* ---- ext-tsp ---- *)

(* Split bounds: arrangements with a split point are tried only for
   chains of at most [split_threshold] blocks, and only while the whole
   function stays under [split_node_limit] blocks — past that the
   quadratic split enumeration stops paying for itself. *)
let split_threshold = 128
let split_node_limit = 512
let epsilon = 1e-9

(* A candidate merge of two chains: the arrangement p[0..cut) · q ·
   p[cut..), where p is the first chain when [p_first] holds, else the
   second; [cut] = length p is plain concatenation. *)
type merge = { gain : float; score : float; p_first : bool; cut : int }

let ext_tsp_merge (cfg : Cfg.t) =
  let n = Cfg.node_count cfg in
  let pool = Chain.create cfg in
  (* arrangement scoring with stamped addresses: only edges with both
     ends inside the arrangement count, which is exactly the chain-local
     score the merge loop maximises.  The blocks are visited in
     arrangement order, then each block's out-edges in edge order. *)
  let addr = Array.make n 0 in
  let stamp = Array.make n 0 in
  let clock = ref 0 and a = ref 0 and t = ref 0.0 in
  let place b =
    stamp.(b) <- !clock;
    addr.(b) <- !a;
    a := !a + Cfg.size cfg b
  in
  let add_edges b =
    let src_end = addr.(b) + Cfg.size cfg b in
    for k = cfg.Cfg.out_first.(b) to cfg.Cfg.out_first.(b + 1) - 1 do
      let e = cfg.Cfg.out.(k) in
      let d = cfg.Cfg.dst.(e) in
      if stamp.(d) = !clock then
        t := !t +. Exttsp.score_edge ~src_end ~dst:addr.(d) cfg.Cfg.count.(e)
    done
  in
  let visit p cut q f =
    for k = 0 to cut - 1 do f p.(k) done;
    Array.iter f q;
    for k = cut to Array.length p - 1 do f p.(k) done
  in
  let score_arr p cut q =
    incr clock;
    a := 0;
    visit p cut q place;
    t := 0.0;
    visit p cut q add_edges;
    !t
  in
  (* self-edges are dropped at Cfg.make, so singletons score 0 *)
  let chain_score = Array.make n 0.0 in
  let entry = cfg.Cfg.entry in
  (* best arrangement of two live chains: X·Y, Y·X, then the splits of
     X, then those of Y, the first to gain the most (past [epsilon])
     winning *)
  let best_merge a b =
    let xa = Chain.blocks pool a and xb = Chain.blocks pool b in
    let la = Array.length xa and lb = Array.length xb in
    let base = chain_score.(a) +. chain_score.(b) in
    let has_entry =
      entry >= 0 && (Chain.chain_of pool entry = a || Chain.chain_of pool entry = b)
    in
    let best = ref None in
    let consider p q p_first cut =
      if (not has_entry) || p.(0) = entry then begin
        let s = score_arr p cut q in
        let g = s -. base in
        match !best with
        | Some m when g <= m.gain +. epsilon -> ()
        | _ -> best := Some { gain = g; score = s; p_first; cut }
      end
    in
    consider xa xb true la;
    consider xb xa false lb;
    if n <= split_node_limit then begin
      if la >= 2 && la <= split_threshold then
        for i = 1 to la - 1 do consider xa xb true i done;
      if lb >= 2 && lb <= split_threshold then
        for i = 1 to lb - 1 do consider xb xa false i done
    end;
    !best
  in
  (* candidate pairs: [adj.(c)] lists the live chains sharing an edge
     with chain c, ascending; a pair's best merge is cached under
     [a * n + b] (a < b) until either chain changes *)
  let adj = Array.make n [] in
  for e = 0 to Cfg.edge_count cfg - 1 do
    let s = cfg.Cfg.src.(e) and d = cfg.Cfg.dst.(e) in
    adj.(s) <- d :: adj.(s);
    adj.(d) <- s :: adj.(d)
  done;
  Array.iteri (fun c l -> adj.(c) <- List.sort_uniq Int.compare l) adj;
  let gains = Cfg.Int_tbl.create n in
  let key a b = if a < b then (a * n) + b else (b * n) + a in
  let continue_ = ref true in
  while !continue_ do
    (* the first pair, in ascending (a, b) order, to gain the most *)
    let best = ref None in
    for a = 0 to n - 1 do
      List.iter
        (fun b ->
          if b > a then begin
            let g =
              match Cfg.Int_tbl.find_opt gains (key a b) with
              | Some g -> g
              | None ->
                  let g = best_merge a b in
                  Cfg.Int_tbl.replace gains (key a b) g;
                  g
            in
            match (g, !best) with
            | None, _ -> ()
            | Some m, Some (bm, _, _) when m.gain <= bm.gain +. epsilon -> ()
            | Some m, _ -> best := Some (m, a, b)
          end)
        adj.(a)
    done;
    match !best with
    | Some (m, a, b) when m.gain > epsilon ->
        let xa = Chain.blocks pool a and xb = Chain.blocks pool b in
        let p, q = if m.p_first then (xa, xb) else (xb, xa) in
        let lp = Array.length p in
        Chain.replace pool ~keep:a ~drop:b
          (Array.concat [ Array.sub p 0 m.cut; q; Array.sub p m.cut (lp - m.cut) ]);
        chain_score.(a) <- m.score;
        (* b's partners become a's, and every cached merge of a or b
           is stale *)
        List.iter (fun c -> Cfg.Int_tbl.remove gains (key a c)) adj.(a);
        List.iter
          (fun c ->
            Cfg.Int_tbl.remove gains (key b c);
            if c <> a then
              adj.(c) <- List.sort_uniq Int.compare (a :: List.filter (( <> ) b) adj.(c)))
          adj.(b);
        adj.(a) <-
          List.filter
            (fun c -> c <> a && c <> b)
            (List.sort_uniq Int.compare (adj.(a) @ adj.(b)));
        adj.(b) <- []
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
