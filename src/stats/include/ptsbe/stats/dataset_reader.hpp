#pragma once

/// \file dataset_reader.hpp
/// \brief `dataset::Reader` lives in core next to the block codec; this
/// header keeps the stats include path working.

#include "ptsbe/core/dataset_reader.hpp"
