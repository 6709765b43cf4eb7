(** Graph-drawing-based spatial mapping (Yoon et al. [23]): spring
    layout of the DFG in the plane, nearest-free-cell legalisation,
    then pipeline stages and strict routing. *)

(** Force-directed coordinates (x, y per node). *)
val layout :
  Ocgra_core.Problem.t -> Ocgra_util.Rng.t -> iterations:int -> float array * float array

(** Snap to the nearest free capable cells; [None] when a node finds no
    cell. *)
val snap : Ocgra_core.Problem.t -> float array * float array -> int array option

(** Up to ten layout restarts; [obs] records one span per layout and
    counts restarts ([graph_drawing.restarts]). *)
val mapper : Ocgra_core.Mapper.t
