(* The single chain abstraction behind every layout pass in the tree.

   A pool starts with one singleton chain per node and supports exactly
   one mutation: replacing two live chains by an arbitrary arrangement
   of their blocks (concatenation either way round, or a split-merge
   like X1·Y·X2).  Chains are arrays, so endpoints are O(1) and merge
   cost is proportional to the merged length; [chain_of] is a flat
   node -> chain-id map, so no union-find or hashtable of mutable list
   cells is needed.  Chain ids are the id of one of the member nodes,
   which keeps every downstream tie-break deterministic. *)

type t = {
  blocks : int array array;  (* chain id -> member nodes; [||] = dead *)
  node_chain : int array;    (* node id -> chain id *)
  weight : int array;        (* chain id -> summed node counts *)
  size : int array;          (* chain id -> summed node sizes *)
  mutable live : int;
}

let create (cfg : Cfg.t) =
  let n = Cfg.node_count cfg in
  {
    blocks = Array.init n (fun i -> [| i |]);
    node_chain = Array.init n (fun i -> i);
    weight = Array.init n (fun i -> Cfg.count cfg i);
    size = Array.init n (fun i -> Cfg.size cfg i);
    live = n;
  }

let chain_of t node = t.node_chain.(node)
let alive t c = Array.length t.blocks.(c) > 0
let blocks t c = t.blocks.(c)
let weight t c = t.weight.(c)
let size t c = t.size.(c)
let length t c = Array.length t.blocks.(c)
let head t c = t.blocks.(c).(0)
let tail t c = let b = t.blocks.(c) in b.(Array.length b - 1)

(* Live chain ids in ascending order — the deterministic iteration
   order for final emission. *)
let live_chains t =
  let acc = ref [] in
  for c = Array.length t.blocks - 1 downto 0 do
    if alive t c then acc := c :: !acc
  done;
  !acc

(* [a + b] for non-negative counts, saturating at [max_int]: the sum
   [Bolt_profile.Fdata.sat_add_int] computes, restated here because
   bolt_layout depends on no other library. *)
let sat_add a b = if a > max_int - b then max_int else a + b

(* Replace chains [keep] and [drop] by [merged], which must be a
   permutation of their combined blocks (the caller decides the
   arrangement: XY, YX, or a split like X1·Y·X2). *)
let replace t ~keep ~drop merged =
  if keep = drop || not (alive t keep) || not (alive t drop) then
    invalid_arg "Chain.replace: need two distinct live chains";
  if Array.length merged <> length t keep + length t drop then
    invalid_arg "Chain.replace: arrangement loses or duplicates blocks";
  t.blocks.(keep) <- merged;
  t.blocks.(drop) <- [||];
  t.weight.(keep) <- sat_add t.weight.(keep) t.weight.(drop);
  t.weight.(drop) <- 0;
  t.size.(keep) <- t.size.(keep) + t.size.(drop);
  t.size.(drop) <- 0;
  Array.iter (fun node -> t.node_chain.(node) <- keep) merged;
  t.live <- t.live - 1

(* Tail-to-head concatenation, the classic Pettis-Hansen move. *)
let append t ~into other =
  replace t ~keep:into ~drop:other (Array.append t.blocks.(into) t.blocks.(other))

(* Emit [chains] in the given order as one flat node order. *)
let emit t chains =
  Array.concat (List.map (fun c -> t.blocks.(c)) chains)
