(* Branch prediction: a gshare direction predictor, a direct-mapped BTB
   for branch targets (indirect branches predict their last observed
   target) and a return-address stack. *)

type t = {
  gshare : int array; (* 2-bit saturating counters *)
  gshare_mask : int;
  mutable ghist : int;
  btb_tags : int array;
  btb_targets : int array;
  btb_mask : int;
  ras : int array;
  mutable ras_top : int;
}

let create ?(gshare_bits = 14) ?(btb_bits = 12) ?(ras_depth = 32) () =
  {
    gshare = Array.make (1 lsl gshare_bits) 2;
    gshare_mask = (1 lsl gshare_bits) - 1;
    ghist = 0;
    btb_tags = Array.make (1 lsl btb_bits) (-1);
    btb_targets = Array.make (1 lsl btb_bits) 0;
    btb_mask = (1 lsl btb_bits) - 1;
    ras = Array.make ras_depth 0;
    ras_top = 0;
  }

(* Predict and update the direction of a conditional branch at [pc].
   Returns true when the prediction was wrong. *)
let cond_branch p pc taken =
  let idx = (pc lxor p.ghist) land p.gshare_mask in
  let ctr = p.gshare.(idx) in
  let predicted = ctr >= 2 in
  p.gshare.(idx) <-
    (if taken then if ctr < 3 then ctr + 1 else 3 else if ctr > 0 then ctr - 1 else 0);
  p.ghist <- ((p.ghist lsl 1) lor (if taken then 1 else 0)) land p.gshare_mask;
  predicted <> taken

(* Target prediction for a taken branch (direct or indirect) at [pc].
   Returns true when the predicted target was wrong. *)
let taken_target p pc target =
  let idx = pc land p.btb_mask in
  let mispred = p.btb_tags.(idx) <> pc || p.btb_targets.(idx) <> target in
  p.btb_tags.(idx) <- pc;
  p.btb_targets.(idx) <- target;
  mispred

let push_ras p addr =
  p.ras.(p.ras_top mod Array.length p.ras) <- addr;
  p.ras_top <- p.ras_top + 1

(* Returns true when the return address was mispredicted. *)
let pop_ras p addr =
  if p.ras_top = 0 then true
  else begin
    p.ras_top <- p.ras_top - 1;
    let predicted = p.ras.(p.ras_top mod Array.length p.ras) in
    predicted <> addr
  end
