(* Function-ordering algorithms, expressed over the shared chain pool in
   lib/layout (bolt_layout).

   - [c3] is HFSort's call-chain clustering (Ottoni & Maher, CGO'17): hot
     functions are appended to the cluster of their hottest caller as long
     as the merged cluster stays within a page-budget and the callee is not
     drastically colder than the cluster, then clusters are emitted by
     density (samples per byte).
   - [hfsort_plus] runs c3 and then greedily merges clusters by expected
     i-TLB benefit — a simplified rendition of the hfsort+ refinement used
     by BOLT's -reorder-functions=hfsort+.
   - [pettis_hansen] is the classic PH "closest is best" cluster merge on
     raw edge weights, the baseline HFSort was measured against.

   A cluster is simply a chain whose nodes are functions: weight =
   samples, size = bytes, so Chain.weight/size give density directly.
   The call graph is already a Cfg with node ids in function-name order,
   and every greedy loop consumes its totally-ordered edge arrays, making
   all three algorithms deterministic under equal weights. *)

module Cfg = Bolt_layout.Cfg
module Chain = Bolt_layout.Chain

type algo = C3 | Hfsort_plus | Pettis_hansen

let page_budget = 4096
let merge_density_ratio = 8 (* callee may be at most 8x colder per byte *)

let density pool c =
  let s = Chain.size pool c in
  if s = 0 then 0.0 else float_of_int (Chain.weight pool c) /. float_of_int s

(* Hot clusters (weight > 0) by density desc, chain id asc, flattened to
   function names.  Cold functions never join a hot chain (every merge
   guard requires weight > 0 on both sides), so they are left for the
   caller's original-order fallback. *)
let cluster_order (g : Callgraph.t) pool =
  Chain.live_chains pool
  |> List.filter (fun c -> Chain.weight pool c > 0)
  |> List.sort (fun a b ->
         let da = density pool a and db = density pool b in
         if da <> db then compare db da else compare a b)
  |> List.concat_map (fun c ->
         Array.to_list (Chain.blocks pool c) |> List.map (Cfg.label g))

(* Hot node ids, samples desc then name asc (id order = name order). *)
let hot_ids (g : Callgraph.t) =
  let ids = ref [] in
  for i = Cfg.node_count g - 1 downto 0 do
    if Cfg.count g i > 0 then ids := i :: !ids
  done;
  List.sort
    (fun a b ->
      let ca = Cfg.count g a and cb = Cfg.count g b in
      if ca <> cb then compare cb ca else compare a b)
    !ids

let c3_merges (g : Callgraph.t) pool =
  let caller = Callgraph.hottest_caller g in
  List.iter
    (fun i ->
      let ci = caller.(i) in
      if ci >= 0 then begin
        let cc = Chain.chain_of pool ci and cf = Chain.chain_of pool i in
        if cc <> cf && Chain.weight pool cc > 0 then begin
          let merged_size = Chain.size pool cc + Chain.size pool cf in
          if
            merged_size <= page_budget
            && density pool cf *. float_of_int merge_density_ratio
               >= density pool cc
          then Chain.append pool ~into:cc cf
        end
      end)
    (hot_ids g)

let c3 (g : Callgraph.t) =
  let pool = Chain.create g in
  c3_merges g pool;
  cluster_order g pool

(* hfsort+ style refinement: keep merging cluster pairs with the highest
   inter-cluster call weight, while the merge still fits a small
   multiple of the page budget; the denser cluster leads. *)
let hfsort_plus (g : Callgraph.t) =
  let pool = Chain.create g in
  c3_merges g pool;
  (* snapshot the c3 clusters: cluster index per node, plus one
     representative node per cluster to find its current chain later *)
  let clusters =
    Chain.live_chains pool |> List.filter (fun c -> Chain.weight pool c > 0)
  in
  let rep = Array.of_list (List.map (Chain.head pool) clusters) in
  let cl = Array.make (Cfg.node_count g) (-1) in
  List.iteri
    (fun i c -> Array.iter (fun b -> cl.(b) <- i) (Chain.blocks pool c))
    clusters;
  (* inter-cluster weights, keyed [a * k + b] for clusters a < b of k;
     summed saturating, like the call weights they add up *)
  let k = Array.length rep in
  let w = Cfg.Int_tbl.create 1024 in
  for e = 0 to Cfg.edge_count g - 1 do
    let ca = cl.(g.Cfg.src.(e)) and cb = cl.(g.Cfg.dst.(e)) in
    if ca >= 0 && cb >= 0 && ca <> cb then begin
      let key = (min ca cb * k) + max ca cb in
      Cfg.Int_tbl.replace w key
        (Bolt_profile.Fdata.sat_add_int g.Cfg.count.(e)
           (Option.value ~default:0 (Cfg.Int_tbl.find_opt w key)))
    end
  done;
  let candidates =
    Cfg.Int_tbl.fold (fun key v acc -> (key, v) :: acc) w []
    |> List.sort (fun (k1, a) (k2, b) ->
           if a <> b then Int.compare b a else Int.compare k1 k2)
  in
  List.iter
    (fun (key, _) ->
      let ra = Chain.chain_of pool rep.(key / k)
      and rb = Chain.chain_of pool rep.(key mod k) in
      if ra <> rb && Chain.size pool ra + Chain.size pool rb <= 4 * page_budget
      then begin
        let hi, lo =
          if density pool ra >= density pool rb then (ra, rb) else (rb, ra)
        in
        Chain.append pool ~into:hi lo
      end)
    candidates;
  cluster_order g pool

(* Classic Pettis-Hansen function ordering: merge the clusters joined by
   the globally heaviest remaining edge (ties broken by endpoint names
   via the edge array's total order). *)
let pettis_hansen (g : Callgraph.t) =
  let pool = Chain.create g in
  for e = 0 to Cfg.edge_count g - 1 do
    let ca = Chain.chain_of pool g.Cfg.src.(e)
    and cb = Chain.chain_of pool g.Cfg.dst.(e) in
    if ca <> cb && Chain.weight pool ca > 0 && Chain.weight pool cb > 0 then
      Chain.append pool ~into:ca cb
  done;
  cluster_order g pool

(* Full ordering: hot functions by the chosen algorithm, then everything
   else in original order. *)
let order algo (g : Callgraph.t) ~(original : string list) : string list =
  let hot =
    match algo with
    | C3 -> c3 g
    | Hfsort_plus -> hfsort_plus g
    | Pettis_hansen -> pettis_hansen g
  in
  let placed = Hashtbl.create 256 in
  List.iter (fun f -> Hashtbl.replace placed f ()) hot;
  hot @ List.filter (fun f -> not (Hashtbl.mem placed f)) original
